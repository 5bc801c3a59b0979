// Convenience facade tying the pipeline together: compile (flatten + plan) a
// source program once, then simulate its performance on a device profile
// and/or execute it for values via the reference interpreter.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/range.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/cost.h"
#include "src/interp/interp.h"
#include "src/plan/plan.h"

namespace incflat {

/// A flattened program bundled with its source, compilation mode and the
/// compile-once kernel plan (decision tree + priced kernel table) that
/// simulation and tuning evaluate instead of re-walking the IR.
struct Compiled {
  Program source;        // type-annotated source program
  FlattenResult flat;    // target program + threshold registry
  FlattenMode mode = FlattenMode::Incremental;
  std::shared_ptr<const KernelPlan> plan;  // built once by compile()
};

/// How to compile: flattening options plus (optionally) a custom pass
/// pipeline.  The default — empty `passes` — runs the canned pipeline
/// (src/pass/pass.h): fusion, normalize, <mode>, prune-segbinds, tiling,
/// plan-build.
struct CompileOptions {
  FlattenOptions flatten;
  /// Pass names (see pass_names()) to run instead of the canned pipeline.
  /// The name "transform" is an alias for the mode's transform pass.  If
  /// "plan-build" is omitted, Compiled::plan stays null and every
  /// simulate() or run_with_faults() call builds a throwaway plan.
  std::vector<std::string> passes;
  /// Verify structural IR invariants after every pass (src/ir/verify.h).
  bool verify_each = false;
  /// Run simplify-guards (plus a prune-segbinds rerun) before plan-build:
  /// fold guards the size analysis proves constant under the program's
  /// declared size bounds and `limits`, deleting dead versions and their
  /// thresholds.  Off by default — the canned pipeline's output is then
  /// bit-identical to previous releases.  Ignored when `passes` is given
  /// explicitly (name the pass yourself).
  bool simplify = false;
  /// Device limits for simplify-guards (see analysis::limits_for).
  analysis::AnalysisLimits limits;
  /// Observer called with each pass's name and the program after it ran
  /// (e.g. incflatc --print-after).
  std::function<void(const std::string& pass, const Program& program)>
      after_pass;
};

/// Compile `src` (which must be type-annotated: see require_typed_source)
/// under `mode`: run the pass pipeline, producing the flattened program,
/// its thresholds and the KernelPlan.
Compiled compile(const Program& src, FlattenMode mode,
                 const CompileOptions& opts = {});

/// The compiled program's kernel plan, or a throwaway one built from its
/// target program when the pipeline did not run plan-build.
std::shared_ptr<const KernelPlan> plan_of(const Compiled& c);

/// Price one run of the compiled program on `dev` for dataset `sizes`, via
/// the kernel plan (bit-identical to the reference IR walk estimate_run).
RunEstimate simulate(const DeviceProfile& dev, const Compiled& c,
                     const SizeEnv& sizes,
                     const ThresholdEnv& thresholds = {});

/// Execute the compiled (target) program for actual values.  `dev` supplies
/// the workgroup limit consulted by intra-group guards.
Values execute(const DeviceProfile& dev, const Compiled& c,
               const SizeEnv& sizes, const ThresholdEnv& thresholds,
               const std::vector<Value>& inputs);

/// Execute the *source* program (reference semantics).
Values execute_source(const Compiled& c, const SizeEnv& sizes,
                      const std::vector<Value>& inputs);

/// One-line human-readable form of a run estimate.
std::string estimate_str(const RunEstimate& e);

}  // namespace incflat
