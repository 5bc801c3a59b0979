// Compile-once kernel plans (the plan layer).
//
// A KernelPlan is the branching tree the paper's multi-versioned binary
// embeds (Fig. 5), made explicit: internal nodes are threshold comparisons
// `Par(e) >= t_i` (with `e` kept symbolic and evaluated against a SizeEnv),
// and the code between/below guards is a flat table of KernelDesc entries —
// flops, global/local bytes, thread counts, launch counts and scratchpad
// need, everything the gpusim cost walker used to recompute by traversing
// the target IR on every estimate.
//
// PlanBuilder lowers a flattened program ONCE by partially evaluating the
// cost walk: all size-dependent arithmetic is recorded into a CostArena,
// threshold guards fork the tree, and data-dependent host branches become
// worse-of-both nodes.  Per dataset, a PlanDatasetCache evaluates the whole
// arena in one sweep and prices every kernel; after that, estimating a run
// under any threshold assignment is a pure tree walk in O(kernels-on-path)
// — the property the autotuner exploits (its per-assignment cost drops from
// an IR walk to a decision-tree descent, Sec. 4.2).
//
// The legacy walker (gpusim::estimate_run) stays available as a debug
// oracle; plan evaluation is bit-identical to it by construction
// (property-tested in tests/test_plan.cpp).
#pragma once

#include <cstdint>
#include <memory>
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
/// bound `fit` (empty alts = unconstrained), exactly the legacy walker's
/// guard_taken.  `bit` is this node's index in path signatures.
struct GuardInfo {
  std::string threshold;
  SizeExpr par;
  SizeExpr fit;
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

/// Path signature: for every guard node, whether it was visited and which
/// branch it took — two bits per guard, packed.  Replaces the autotuner's
/// string-concatenated signature keys: equal signatures select the same
/// code versions, hence cost the same (paper Sec. 4.2 dedup).
struct PathSig {
  std::vector<uint64_t> bits;

  explicit PathSig(size_t guards = 0) : bits((2 * guards + 63) / 64, 0) {}
  void set(int guard_ix, bool taken) {
    const size_t b = 2 * static_cast<size_t>(guard_ix);
    bits[b / 64] |= uint64_t{1} << (b % 64);
    if (taken) bits[(b + 1) / 64] |= uint64_t{1} << ((b + 1) % 64);
  }
  void merge(const PathSig& o) {
    for (size_t i = 0; i < bits.size(); ++i) bits[i] |= o.bits[i];
  }
  bool operator==(const PathSig& o) const { return bits == o.bits; }
};

/// The compile-once plan for one target program.
struct KernelPlan {
  CostArena arena;
  std::vector<KernelDesc> kernels;
  std::vector<GuardInfo> guards;
  std::vector<PlanNode> nodes;
  int root = -1;

  /// Distinct threshold parameter names, in first-guard order.
  std::vector<std::string> thresholds;

  /// Set when the program uses a construct the builder cannot lower exactly
  /// (e.g. threshold guards nested inside a data-dependent branch of an
  /// intra-group body); estimates then route through the legacy IR walker.
  bool legacy_fallback = false;
  std::string fallback_reason;

  /// The target program (cheap to retain: expression trees are shared), for
  /// the legacy fallback and the debug oracle.
  Program program;
};

/// Lower a flattened target program into a plan.  Never throws on exotic
/// programs: constructs outside the supported fragment set legacy_fallback.
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

  /// Guard branch under a threshold value, mirroring the legacy
  /// guard_taken: fit failure wins, else par >= threshold.
  bool guard_taken(int guard_ix, int64_t threshold_value) const;

  /// Raw observed guard operands for this dataset: the evaluated Par value
  /// (0 when it could not be evaluated — Par values are always >= 1
  /// otherwise) and whether the workgroup-fit bound failed.  `error`
  /// mirrors guard_taken's unbound-variable condition.
  struct GuardObs {
    int64_t par = 0;
    bool fit_fail = false;
    bool error = false;
  };
  GuardObs guard_obs(int guard_ix) const;

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

/// Full estimate via the plan: bit-identical to gpusim::estimate_run on the
/// same program.  The cache must have been built for the same plan.
RunEstimate plan_estimate(const KernelPlan& plan, const PlanDatasetCache& cache,
                          const ThresholdEnv& thresholds);

/// Tuner fast path: the run's total simulated time only, optionally
/// recording the guard-path signature.  Same arithmetic as plan_estimate,
/// minus the kernel/guard report vectors.
double plan_cost(const KernelPlan& plan, const PlanDatasetCache& cache,
                 const ThresholdEnv& thresholds, PathSig* sig = nullptr);

/// Guard-path signature alone: which guards an assignment reaches and which
/// branches they take, without pricing a single kernel.  This is the
/// autotuner's dedup key — equal signatures select identical code versions
/// and therefore cost the same (Sec. 4.2), so the cost evaluation can be
/// skipped entirely.  Not available for legacy_fallback plans.
PathSig plan_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                       const ThresholdEnv& thresholds);

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
  /// Threshold guards on the path from the root to this kernel, with the
  /// branch each takes under the assignment.
  std::vector<std::pair<std::string, bool>> guard_path;
};

/// The ordered launch schedule plan_estimate prices under `thresholds`:
/// Guard nodes descend the selected branch, DataCond descends the worse
/// branch (the one whose report plan_estimate merges), Scale multiplies
/// time and launch counts.  Entry times sum to plan_cost.  Empty for
/// legacy_fallback plans (the executor then degrades via the estimate's
/// flat guard list instead).
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
