// The compile pipeline as named, composable passes.
//
// Each phase of compilation (fusion, A-normalisation, the mode transform
// G0–G9, dead seg-binding pruning, tiling detection, kernel-plan build) is a
// `Pass` object transforming a `PipelineState` in place.  A `PassManager`
// runs a sequence of passes, timing each one under a `pass.<name>` trace
// span and optionally verifying structural IR invariants (src/ir/verify.h)
// after every pass.  The canned pipelines reproduce the historical
// monolithic `flatten()` / `exec::compile()` behaviour exactly; custom
// sequences (e.g. `incflatc --passes=...`) can reorder, skip, or inspect.
//
// Pass registry (see make_pass / pass_names):
//
//   fusion          producer-consumer fusion (skipped if !options.fuse)
//   normalize       A-normalisation w.r.t. parallelism
//   moderate        the mode transform, one pass per mode; incremental
//   incremental       flattening guards its versions with threshold
//   full              comparisons
//   prune-segbinds  drop dead seg-space bindings
//   tiling          mark block-tilable segmaps, check level discipline
//   plan-build      lower the target program into a KernelPlan
//
// The program is the only state the passes share about guards: the
// threshold registry is read off the final program's guards
// (src/flatten/thresholds.h).
//
// Every pass keeps the program type-annotated: it gives each node it
// builds the types the checker would, so no pass re-typechecks.  The
// whole-program checker runs only in the verifier, which compares every
// annotation with a fresh check.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/flatten/flatten.h"
#include "src/ir/expr.h"
#include "src/plan/plan.h"

namespace incflat {

/// The state a pipeline threads through its passes.  `program` starts as
/// the type-annotated source program and ends as the target program;
/// `plan` is filled by plan-build.
struct PipelineState {
  Program program;
  FlattenMode mode = FlattenMode::Incremental;
  FlattenOptions options;
  std::shared_ptr<const KernelPlan> plan;
};

/// A named pipeline stage.  `name()` and `span_name()` must return string
/// literals: trace::Span stores the pointer, not a copy.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;       // e.g. "prune-segbinds"
  virtual const char* span_name() const = 0;  // e.g. "pass.prune-segbinds"
  virtual void run(PipelineState& st) const = 0;
};

/// Look a pass up by registry name; throws CompilerError (listing the known
/// passes) on an unknown name.
std::unique_ptr<Pass> make_pass(const std::string& name);

/// Registry names accepted by make_pass, in canned-pipeline order.
std::vector<std::string> pass_names();

struct PassManagerOptions {
  /// Run verify_program after every pass (also forced by the
  /// INCFLAT_VERIFY_EACH environment variable).  Violations throw
  /// VerifyError attributed to "after pass '<name>'".
  bool verify_each = false;
  /// Observer called after each pass (and after its verification), e.g. to
  /// print intermediate IR.
  std::function<void(const Pass&, const PipelineState&)> after_pass;
};

class PassManager {
 public:
  PassManager& add(std::unique_ptr<Pass> p);
  PassManager& add(const std::string& name);  // via make_pass

  /// Run all passes in order over `st`.
  void run(PipelineState& st, const PassManagerOptions& opts = {}) const;

  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The canned flattening pipeline for `mode`:
/// fusion, normalize, <mode>, prune-segbinds, tiling.
PassManager flatten_pipeline(FlattenMode mode);

/// flatten_pipeline plus plan-build — what exec::compile runs.
PassManager compile_pipeline(FlattenMode mode);

}  // namespace incflat
