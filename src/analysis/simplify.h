// The simplify-guards transformation: fold branch-tree guards the symbolic
// size analysis proves constant and delete the unreachable code versions.
// A folded guard's threshold leaves the program with it, and so leaves the
// registry read off the program (src/flatten/thresholds.h).
//
// Two folding rules, each sound for *every* in-bounds dataset and every
// threshold assignment:
//
//   F1 (device infeasibility)  — a guard whose workgroup-fit bound has an
//      interval lower bound above the device's max_group_size can never be
//      taken (guard_never_taken in src/analysis/range.h): keep only the
//      else-version.
//   F3 (degenerate versions)   — both arms are the same IR (same_ir in
//      src/ir/traverse.h): the guard distinguishes nothing, keep the
//      then-arm.
//
// There is no rule relating two guards: each threshold is compared by
// exactly one guard, so one guard's outcome never constrains another's.
//
// Because all code versions are semantically equivalent by construction,
// folding never changes program results — only which version the plan can
// select — and for in-bounds datasets the folded branch is exactly the one
// the unsimplified program would have taken, so gpusim cost estimates are
// bit-identical (asserted by bench/ablation_codesize and
// tests/test_analysis.cpp).
#pragma once

#include <cstdint>

#include "src/analysis/range.h"
#include "src/ir/expr.h"

namespace incflat {
namespace analysis {

struct SimplifyStats {
  int64_t guards_folded = 0;      // If nodes whose guard was removed
  int64_t versions_pruned = 0;    // seg-ops deleted with unreachable arms
  int64_t thresholds_dropped = 0; // guards removed, folded or in dead arms
};

/// Fold decidable guards in `p` (in place) under its declared size bounds
/// and the given device limits.  Unknown limits (negative fields) restrict
/// folding to device-independent rules.  The caller re-runs prune-segbinds
/// afterwards.
SimplifyStats simplify_guards(Program& p, const AnalysisLimits& lim);

}  // namespace analysis
}  // namespace incflat
