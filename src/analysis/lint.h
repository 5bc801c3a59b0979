// Static-analysis lint over a compiled (target) program: structured
// diagnostics for findings that are not verification *errors* — the
// program is well-formed — but indicate wasted versions, impossible
// configurations, or leftover bindings.  Backs `incflatc --lint`.
//
// Catalogue (check names as emitted):
//
//   dead-version   (warning) — a guard the size analysis decides constant
//                   for every in-bounds dataset on the given device: one
//                   arm (and every seg-op version inside it) can never run.
//                   simplify-guards would delete it.
//   local-mem-overflow (error) — an intra-group seg-op whose symbolic
//                   scratchpad footprint's *lower* bound exceeds the
//                   device's local memory: the cost model will always take
//                   the global-memory fallback, so the version is never an
//                   improvement.
//   unused-segbind (warning) — a seg-space binding whose parameters are
//                   used neither by the body nor by deeper bindings
//                   (prune-segbinds should have removed it; firing means a
//                   pass regressed).
//   guard-constant-fit (note) — a guard whose workgroup-fit conjunct is
//                   vacuously true on this device (fit's upper bound <=
//                   max_group_size): the comparison degenerates to a pure
//                   threshold test there.
//   dead-binding   (note) — a let/loop/lambda binding with zero uses.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/range.h"
#include "src/ir/expr.h"
#include "src/support/diag.h"

namespace incflat {
namespace analysis {

struct LintOptions {
  AnalysisLimits limits;    // negative fields: device-independent lints only
  std::string device_name;  // named in device-dependent messages
};

/// Lint `p` (a compiled target program, type-annotated) under its declared
/// size bounds.  Diagnostics come back in IR-walk order, errors first
/// within a site.
std::vector<Diagnostic> lint_program(const Program& p,
                                     const LintOptions& opts = {});

}  // namespace analysis
}  // namespace incflat
