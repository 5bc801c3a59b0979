// Autotuner for threshold parameters (paper Sec. 4.2).
//
// The paper tunes with OpenTuner, defining one log-scaled integer parameter
// (LogIntegerParameter) per threshold and a cost function summing runtimes
// over user-provided training datasets.  This module reimplements that
// design: an ensemble stochastic search (random sampling + log-scale hill
// climbing from the incumbent) over power-of-two threshold values, with the
// paper's branching-tree deduplication — assignments that select the same
// code version on every training dataset share one (simulated) measurement.
//
// Cost evaluation goes through the plan layer (src/plan/): the program is
// lowered once into a KernelPlan decision tree, each training dataset gets
// a PlanDatasetCache, and from then on every candidate assignment costs one
// tree descent.  Dedup keys are guard-path bitsets from a structural
// descent that prices nothing.  Both searches run on the calling thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/flatten/thresholds.h"
#include "src/gpusim/cost.h"
#include "src/gpusim/device.h"
#include "src/interp/interp.h"

namespace incflat {

/// One training dataset: a size environment and a weight in the cost
/// function (the paper uses the unweighted sum; weights allow the "user
/// indicates which workloads matter" extension discussed in Sec. 4.2).
struct TuningDataset {
  std::string name;
  SizeEnv sizes;
  double weight = 1.0;
};

struct TunerOptions {
  int max_trials = 400;        // parameter assignments attempted
  uint64_t seed = 0xf00dcafe;  // deterministic search
  int log2_min = 0;            // thresholds range over [2^min, 2^max]
  int log2_max = 31;
  int64_t default_threshold = int64_t{1} << 15;  // paper default

  /// No effect: the tuner runs on the calling thread.  Kept because
  /// perfbench/bench/wl_tune.cpp sets it.
  int workers = 0;

  // --- robustness (fault-injected measurements; all off by default, in
  // --- which case the search is bit-identical to previous releases) ---

  /// Relative amplitude of multiplicative measurement noise: each single
  /// measurement is the true cost scaled by a uniform factor in
  /// [1-noise, 1+noise] (FaultPlan::noise_factor's distribution).
  double noise = 0;
  /// Probability an individual measurement fails outright (a crashed or
  /// lost run).  Failed measurements are discarded; a candidate whose every
  /// re-measurement failed is marked infeasible, never adopted.
  double failure_rate = 0;
  /// Seed of the measurement stream (noise + failure draws).
  uint64_t measure_seed = 0x5eedf417;
  /// Median-of-k re-measurement when noise or failures are enabled: each
  /// evaluation draws k measurements and keeps the median of the ones that
  /// survived.  Ignored (single exact measurement) when both are zero.
  int measure_k = 5;
  /// A candidate whose measured cost exceeds this is marked infeasible
  /// rather than aborting the search; 0 disables.  (Simulated microseconds
  /// — the per-candidate timeout of a real measurement harness.)
  double candidate_timeout_us = 0;
  /// Wall-clock budget in milliseconds; when exceeded the search stops
  /// gracefully and returns the incumbent (early_stopped in the report).
  /// 0 = unlimited.  The only nondeterministic knob — leave at 0 for
  /// reproducible searches.
  double budget_ms = 0;
  /// Crash-safe journal file: every evaluation is appended atomically so an
  /// interrupted search resumes (`resume`) to a bit-identical report.
  /// Empty = no journal.
  std::string journal;
  /// Resume from `journal` (which must exist and match this search's
  /// configuration) instead of starting fresh.
  bool resume = false;
};

struct TuningReport {
  ThresholdEnv best;          // tuned assignment (and default for the rest)
  double best_cost_us = 0;    // sum of weighted runtimes under `best`
  double default_cost_us = 0; // cost of the untuned (2^15) assignment
  int trials = 0;             // assignments attempted
  int evaluations = 0;        // cost-model evaluations actually performed
  int dedup_hits = 0;         // assignments resolved from the branching tree
  int infeasible = 0;         // evaluations timed out / failed every retry
  int journal_replayed = 0;   // evaluations answered from a resumed journal
  bool early_stopped = false; // wall-clock budget exhausted; best = incumbent
};

/// Tune `p`'s thresholds for `dev` over the training datasets.
TuningReport autotune(const DeviceProfile& dev, const Program& p,
                      const ThresholdRegistry& reg,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts = {});

/// Exhaustive search over the *distinct dynamic behaviours*: each threshold
/// takes values from {1, 2^62} ∪ {per-dataset Par values}, so every
/// reachable combination of code-version selections is visited, through
/// the same dedup memo as autotune.  Used as the oracle in tests and the
/// "AIF with unlimited tuning budget" bound.
TuningReport exhaustive_tune(const DeviceProfile& dev, const Program& p,
                             const ThresholdRegistry& reg,
                             const std::vector<TuningDataset>& datasets,
                             int64_t default_threshold = int64_t{1} << 15);

/// The tuner's cost function priced by the reference IR walker
/// (gpusim::estimate_run): weighted sum over datasets of simulated runtime
/// under the given assignment.  The tuner itself prices candidates with
/// plan_cost over per-dataset caches; tests and benches compare the two.
double tuning_cost(const DeviceProfile& dev, const Program& p,
                   const std::vector<TuningDataset>& datasets,
                   const ThresholdEnv& thresholds);

}  // namespace incflat
