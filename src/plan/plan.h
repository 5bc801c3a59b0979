// Compile-once kernel plans (the plan layer).
//
// A KernelPlan is the branching tree the paper's multi-versioned binary
// embeds (Fig. 5), made explicit: internal nodes are threshold comparisons
// `Par(e) >= t_i` (with `e` kept symbolic and evaluated against a SizeEnv),
// and the code between/below guards is a flat table of KernelDesc entries —
// flops, global/local bytes, thread counts, launch counts and scratchpad
// need.
//
// PlanBuilder lowers a flattened program ONCE by partially evaluating the
// gpusim cost model: all size-dependent arithmetic is recorded into a
// CostArena, host-level threshold guards fork the tree, and data-dependent
// host branches become worse-of-both nodes.  A program outside that
// fragment (such as a guard inside a kernel) is a compile error, so every
// compiled program has a plan.  Per dataset, a PlanDatasetCache evaluates
// the whole arena in one sweep and prices every kernel; after that, one
// descent of the tree (plan_descend) prices a run under any threshold
// assignment in O(kernels-on-path) and yields its estimate and launch
// schedule.  Which guards an assignment reaches, and which arms they take,
// is one forward pass over the guard list (plan_signature), since each
// guard records its enclosing guard — the dedup key the autotuner exploits
// (Sec. 4.2).  Each guard compares its own threshold, so a guard's index is
// its threshold's slot: guard g's value is slots[g], and a named assignment
// (ThresholdEnv) is resolved to slots once per call.
//
// The plan is the only cost model simulation, runs and tuning use.  The IR
// walker gpusim::estimate_run stays as the reference the tests compare the
// plan against; plan evaluation is bit-identical to it by construction
// (property-tested in tests/test_plan.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/gpusim/cost.h"
#include "src/plan/costexpr.h"

namespace incflat {

/// One priced code-version kernel: symbolic work/threads (CostArena node
/// ids) plus static launch count and label.  `fallback` is the node id of
/// the scratchpad-overflow condition (-1 when the kernel never spills);
/// the work fields already include the fallback penalty via select nodes.
struct KernelDesc {
  std::string what;   // segmap^1 / segred^1{intra} / ... (pre loop-suffix)
  int flops = -1;     // F nodes
  int gbytes = -1;
  int lbytes = -1;
  int threads = -1;   // I node
  int launches = 1;   // static per-execution launch count
  int fallback = -1;  // bool node: local-memory fallback taken
};

/// Internal decision node: `Par(par) >= t` with the workgroup-feasibility
/// bound `fit` (empty alts = unconstrained), exactly the walker's
/// guard_taken.  A guard's index in KernelPlan::guards is its position in
/// path signatures and its threshold's slot in a descent.  Guards are
/// listed in the pre-order of the program's guards, the order of the
/// ThresholdRegistry read off the same program, so a guard's `parent`
/// comes before it.
struct GuardInfo {
  std::string threshold;
  SizeExpr par;
  SizeExpr fit;
  /// The nearest enclosing guard (-1 at the root) and the arm of it that
  /// holds this guard.  DataCond and Scale nodes are transparent: a guard
  /// under a data-dependent branch or a loop is reached whenever the node
  /// above it is.
  int parent = -1;
  bool in_then = false;
};

struct PlanNode {
  enum class Kind { Block, Guard, DataCond, Scale };
  Kind kind = Kind::Block;
  // Block: ordered steps; each step is a kernel (is_kernel) or a child node.
  struct Step {
    bool is_kernel = false;
    int index = -1;
  };
  std::vector<Step> steps;  // Block only
  int guard = -1;           // Guard: index into KernelPlan::guards
  int then_node = -1;       // Guard / DataCond
  int else_node = -1;       // Guard / DataCond
  int count = -1;           // Scale: I node (loop trip count)
  int child = -1;           // Scale
};

/// Path signature: for every guard, whether an assignment reaches it and
/// which branch it takes — two bits per guard, packed (bit 2g: reached,
/// bit 2g+1: taken).  Equal signatures select the same code versions, hence
/// cost the same (paper Sec. 4.2 dedup).
struct PathSig {
  std::vector<uint64_t> bits;

  explicit PathSig(size_t guards = 0) : bits((2 * guards + 63) / 64, 0) {}
  void set(int guard_ix, bool taken) {
    const size_t b = 2 * static_cast<size_t>(guard_ix);
    bits[b / 64] |= uint64_t{1} << (b % 64);
    if (taken) bits[(b + 1) / 64] |= uint64_t{1} << ((b + 1) % 64);
  }
  bool reached(int guard_ix) const {
    return bit(2 * static_cast<size_t>(guard_ix));
  }
  bool taken(int guard_ix) const {
    return bit(2 * static_cast<size_t>(guard_ix) + 1);
  }
  bool operator==(const PathSig& o) const { return bits == o.bits; }

 private:
  bool bit(size_t b) const { return (bits[b / 64] >> (b % 64)) & 1; }
};

/// The compile-once plan for one target program.
struct KernelPlan {
  std::string program;  // the target program's name
  CostArena arena;
  std::vector<KernelDesc> kernels;
  std::vector<GuardInfo> guards;
  std::vector<PlanNode> nodes;
  int root = -1;

  /// Always false: a program the builder cannot lower is a compile error.
  /// Kept because perfbench/bench/wl_compile.cpp reads it and the daemon's
  /// compile answer echoes it.
  bool legacy_fallback = false;
};

/// Lower a flattened target program into a plan.  Throws CompilerError
/// naming the construct when the program leaves the fragment the builder
/// lowers exactly (e.g. a threshold guard inside a kernel).
KernelPlan build_kernel_plan(const Program& p);

/// All per-dataset state: one forward sweep over the arena plus lazily
/// priced kernels and guard operand values.  Reusable (and read-only) across
/// any number of threshold assignments, which is what makes tuner
/// evaluations O(kernels-on-path).
class PlanDatasetCache {
 public:
  PlanDatasetCache(const KernelPlan& plan, const DeviceProfile& dev,
                   const SizeEnv& sizes);

  const DeviceProfile& dev() const { return dev_; }
  const SizeEnv& sizes() const { return sizes_; }

  struct PricedKernel {
    double time_us = 0;
    int64_t threads = 0;
    Work work;
    bool fallback = false;
    bool valid = false;
  };
  /// Priced kernel `k`; throws EvalError if its sizes are unbound.
  const PricedKernel& kernel(int k) const;

  /// Guard branch under a threshold value, mirroring the walker's
  /// guard_taken: fit failure wins, else par >= threshold.
  bool guard_taken(int guard_ix, int64_t threshold_value) const;

  /// The evaluated arena (loop trip counts live here alongside kernel work).
  const CostValues& values() const { return values_; }

 private:
  DeviceProfile dev_;
  SizeEnv sizes_;
  CostValues values_;
  std::vector<PricedKernel> kernels_;
  struct GuardVals {
    int64_t par = 0;
    bool fit_fail = false;
    bool error = false;
  };
  std::vector<GuardVals> guards_;
};

/// One entry of a run's kernel-launch schedule: a kernel step the estimate
/// prices under a concrete threshold assignment, annotated with the guard
/// decisions on its tree path (outermost first).  The guard path is the raw
/// material of the executor's *degradation chain* (src/exec/runtime.h): on a
/// persistent fault the innermost taken guard is forced off, falling back
/// from the selected code version to its guarded sibling (intra-group ->
/// outer-only sequentialised -> fully flattened).
struct LaunchInfo {
  int kernel = -1;     // KernelPlan::kernels index
  std::string what;    // kernel label, with the Scale "xN" suffix applied
  double time_us = 0;  // total simulated time of this entry
  int64_t launches = 1;  // physical launches it represents (static x trips)
  /// Threshold guards on the path from the root to this kernel, as
  /// KernelPlan::guards indices, with the branch each takes under the
  /// assignment.
  std::vector<std::pair<int, bool>> guard_path;
};

/// What one plan_descend call records besides the run's time.  Each output
/// is filled only when non-null, by appending (pass empty ones).
struct PlanDescent {
  RunEstimate* estimate = nullptr;
  std::vector<LaunchInfo>* schedule = nullptr;
};

/// The one descent of the plan tree under a threshold assignment given by
/// slot (`slots[g]` is guard g's threshold value; one entry per
/// KernelPlan::guards).  Guard nodes take the branch the assignment
/// selects; DataCond nodes descend both branches and keep the worse one's
/// time, report and launches (a deterministic stand-in for the
/// data-dependent choice a real run would make); Scale nodes multiply
/// their child's time and launch counts by the loop trip count.  Returns
/// the run's simulated time and also stores it in
/// `want.estimate->time_us`.  The cache must have been built for `plan`.
/// The autotuner calls this form on flat candidate vectors.
double plan_descend(const KernelPlan& plan, const PlanDatasetCache& cache,
                    std::span<const int64_t> slots, const PlanDescent& want);

/// The same descent under a named assignment, resolved to slots once per
/// call: slot i takes `thresholds.get(plan.guards[i].threshold)`, and names
/// the plan has no guard for are ignored.  Every ThresholdEnv entry point
/// below is a call of it.
double plan_descend(const KernelPlan& plan, const PlanDatasetCache& cache,
                    const ThresholdEnv& thresholds, const PlanDescent& want);

/// Full estimate via the plan: bit-identical to gpusim::estimate_run on the
/// same program.
RunEstimate plan_estimate(const KernelPlan& plan, const PlanDatasetCache& cache,
                          const ThresholdEnv& thresholds);

/// The run's total simulated time only.
double plan_cost(const KernelPlan& plan, const PlanDatasetCache& cache,
                 const ThresholdEnv& thresholds);

/// Guard-path signature: which guards an assignment reaches and which
/// branches they take, without pricing a single kernel or walking the
/// tree.  One forward pass over KernelPlan::guards: guard g is reached if
/// it has no parent, or if its parent was reached and took the arm
/// `in_then` names, exactly the guards a descent visits (both arms of a
/// DataCond, every loop body).  Throws EvalError if a reached guard's
/// sizes are unbound.  This is the autotuner's dedup key — equal
/// signatures select identical code versions and therefore cost the same
/// (Sec. 4.2), so the cost evaluation can be skipped entirely.  `sig` is
/// reset to the plan's guard count first, so one buffer serves every call.
void plan_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                    std::span<const int64_t> slots, PathSig& sig);

/// The same signature under a named assignment, resolved to slots first.
PathSig plan_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                       const ThresholdEnv& thresholds);

/// The ordered launch schedule plan_estimate prices under `thresholds`.
/// Entry times sum to plan_cost.
std::vector<LaunchInfo> plan_launch_schedule(const KernelPlan& plan,
                                             const PlanDatasetCache& cache,
                                             const ThresholdEnv& thresholds);

/// Convenience: build a throwaway cache and estimate (one-off queries; for
/// repeated evaluation build a PlanDatasetCache per dataset and reuse it).
RunEstimate plan_estimate_run(const KernelPlan& plan, const DeviceProfile& dev,
                              const SizeEnv& sizes,
                              const ThresholdEnv& thresholds);

/// One-line plan statistics (node/kernel/guard counts) for CLI inspection.
std::string plan_stats(const KernelPlan& plan);

}  // namespace incflat
