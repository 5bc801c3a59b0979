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
// Both searches tune a compiled KernelPlan (src/plan/), the branching tree
// of guarded versions (Fig. 5) that compile() already built: the plan's
// guards are the thresholds, its guard i compares threshold i, and its Par
// values give the exhaustive search's candidates.  Each training dataset
// gets a PlanDatasetCache, and from then on every candidate assignment
// costs one tree descent.  A dedup key is the guard-path bitsets of all
// datasets from one forward pass over the guard list, datasets as bit
// lanes (plan_signature over GuardLanes), which prices nothing and walks
// no tree; it is packed into 2 bits per guard per dataset and looked up in
// an open-addressed table with one flat key arena.  A candidate is a flat
// vector of guard slots (a sentinel leaves a threshold at its default), so
// a trial runs on reused slot, signature and key buffers: no trial builds a
// name-keyed map, a dedup hit allocates nothing, and only the report is a
// ThresholdEnv.
// Both run on the calling thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/flatten/thresholds.h"
#include "src/gpusim/cost.h"
#include "src/gpusim/device.h"
#include "src/interp/interp.h"
#include "src/plan/plan.h"

namespace incflat {

/// One training dataset: a size environment and a weight in the cost
/// function (the paper uses the unweighted sum; weights allow the "user
/// indicates which workloads matter" extension discussed in Sec. 4.2).
struct TuningDataset {
  std::string name;
  SizeEnv sizes;
  double weight = 1.0;
};

/// Thresholds range over [2^0, 2^31]; one left unset takes ThresholdEnv's
/// default, the paper's 2^15.
struct TunerOptions {
  int max_trials = 400;        // parameter assignments attempted
  uint64_t seed = 0xf00dcafe;  // deterministic search

  /// No effect: the tuner runs on the calling thread.  Kept because
  /// perfbench/bench/wl_tune.cpp sets it.
  int workers = 0;

  // --- robustness (fault-injected measurements; all off by default, in
  // --- which case the search is bit-identical to previous releases) ---

  /// Relative amplitude of multiplicative measurement noise: each single
  /// measurement is the true cost scaled by a uniform factor in
  /// [1-noise, 1+noise] (FaultPlan::noise_factor's distribution).  With
  /// noise or failures enabled, each evaluation draws 5 measurements and
  /// keeps the median of the ones that survived.
  double noise = 0;
  /// Probability an individual measurement fails outright (a crashed or
  /// lost run).  Failed measurements are discarded; a candidate whose every
  /// re-measurement failed is marked infeasible, never adopted.
  double failure_rate = 0;
  /// Seed of the measurement stream (noise + failure draws).
  uint64_t measure_seed = 0x5eedf417;
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
  int infeasible = 0;         // evaluations whose every measurement failed
  int journal_replayed = 0;   // evaluations answered from a resumed journal
  bool early_stopped = false; // wall-clock budget exhausted; best = incumbent
};

/// Tune `plan`'s thresholds for `dev` over the training datasets.
TuningReport autotune(const DeviceProfile& dev, const KernelPlan& plan,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts = {});

/// Exhaustive search over the *distinct dynamic behaviours*: each threshold
/// takes values from {1, 2^62} ∪ {its guard's Par value on each dataset},
/// so every reachable combination of code-version selections is visited,
/// through the same dedup memo as autotune.  Used as the oracle in tests
/// and the "AIF with unlimited tuning budget" bound.
TuningReport exhaustive_tune(const DeviceProfile& dev, const KernelPlan& plan,
                             const std::vector<TuningDataset>& datasets);

/// Forwarders for callers that still hold only the target program: each
/// builds `p`'s plan and tunes it.  The registry is not read.
TuningReport autotune(const DeviceProfile& dev, const Program& p,
                      const ThresholdRegistry&,
                      const std::vector<TuningDataset>& datasets,
                      const TunerOptions& opts = {});
TuningReport exhaustive_tune(const DeviceProfile& dev, const Program& p,
                             const ThresholdRegistry&,
                             const std::vector<TuningDataset>& datasets);

/// The tuner's cost function priced by the reference IR walker
/// (gpusim::estimate_run): weighted sum over datasets of simulated runtime
/// under the given assignment.  The tuner itself prices candidates with
/// plan_descend over per-dataset caches; tests and benches compare the two.
double tuning_cost(const DeviceProfile& dev, const Program& p,
                   const std::vector<TuningDataset>& datasets,
                   const ThresholdEnv& thresholds);

}  // namespace incflat
