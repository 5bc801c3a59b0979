// Fault-tolerant simulated runtime: retries, backoff, and graceful
// version-degradation over the guard tree.
//
// The paper's multi-versioned code — sibling code versions guarded by
// threshold predicates — doubles as a graceful-degradation mechanism: when
// the selected version cannot run (scratchpad allocation failure, repeated
// launch faults, a kernel overrunning its timeout), a *sibling* version of
// the same map nest still can.  run_with_faults executes a compiled
// program's launch schedule against a FaultPlan under a RunPolicy:
//
//   * transient faults (launch-failed, launch-timeout, device-lost) are
//     retried with capped exponential backoff;
//   * persistent faults (local-alloc-failed, retries exhausted, a kernel
//     that can never meet the per-kernel timeout) *degrade*: the innermost
//     taken guard on the failing kernel's tree path is forced off, falling
//     back intra-group -> outer-only sequentialised -> fully flattened, and
//     the run restarts under the degraded assignment;
//   * when no sibling survives (the fully flattened version itself faults
//     persistently) or the degradation budget is exhausted, the run returns
//     a structured Diagnostic instead of throwing raw.
//
// Every fault, retry and degradation is recorded in the RunOutcome report
// and in the exec.faults / exec.retries / exec.degradations trace counters.
// Degradation changes only *which* guarded version runs, never the values
// it computes (the paper's semantics-preservation property), so a degraded
// run is value-identical to the fault-free one — execute the outcome's
// effective thresholds to check against the interpreter oracle.
//
// A run's launch schedule is a pure function of (plan, device, sizes,
// thresholds), so repeated runs of one shape share a RunMemo: the shape's
// dataset cache plus the schedule and estimate of one threshold assignment,
// built once and never mutated.  The executor replays the memo's schedule
// when a run asks for the memo's assignment and descends the plan tree on
// the memo's cache otherwise (other thresholds, or after a degradation).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/exec.h"
#include "src/gpusim/faults.h"
#include "src/support/diag.h"

namespace incflat {

/// `ms` milliseconds after `now`, range-checked before converting to whole
/// microseconds: `ms <= 0` (or NaN) is `now` itself, and a bound past the
/// clock's range is `time_point::max()`, i.e. no deadline at all.
inline std::chrono::steady_clock::time_point deadline_after_ms(
    std::chrono::steady_clock::time_point now, double ms) {
  using Clock = std::chrono::steady_clock;
  const double us = ms * 1000.0;
  if (!(us > 0)) return now;
  const auto room = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::time_point::max() - now);
  return us < static_cast<double>(room.count())
             ? now + std::chrono::microseconds(static_cast<int64_t>(us))
             : Clock::time_point::max();
}

/// Cooperative end-to-end cancellation: an optional wall-clock deadline
/// plus an externally flippable flag, checked at safe points (between
/// kernel launches, between tuner evaluations).  The serve layer mints one
/// per request carrying a "deadline_ms" budget and threads it client ->
/// scheduler -> executor, so an expired request is answered "timeout" at
/// the next check instead of burning a worker to compute an answer nobody
/// is waiting for.
///
/// Thread-safe: cancel() may race expired() from any thread.  The default
/// token never expires and costs one relaxed load per check.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A token expiring `ms` from now (ms <= 0 = already expired).  Tokens
  /// are neither copyable nor movable (the flag is shared by address);
  /// share one via shared_ptr when several holders need it.
  explicit CancelToken(double deadline_ms) { set_deadline_ms(deadline_ms); }

  /// A deadline past the clock's range is no deadline at all.
  void set_deadline_ms(double ms) {
    deadline_ = deadline_after_ms(Clock::now(), ms);
  }

  /// Flip the flag; every subsequent expired() answers true.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Deadline passed or cancel() called.
  bool expired() const {
    return cancel_requested() ||
           (deadline_ != Clock::time_point::max() &&
            Clock::now() >= deadline_);
  }

  /// Milliseconds left before the deadline; negative once expired, and a
  /// very large value when the token has no deadline (callers clamp).
  double remaining_ms() const {
    if (cancel_requested()) return -1;
    if (deadline_ == Clock::time_point::max()) return 1e18;
    return std::chrono::duration<double, std::milli>(deadline_ -
                                                     Clock::now())
        .count();
  }

 private:
  std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// Retry / timeout / degradation budgets for one run.
struct RunPolicy {
  /// Total attempts per launch (first try + retries).
  int max_attempts = 4;
  /// Backoff before retry k (1-based): backoff_us * 2^(k-1), capped.
  double backoff_us = 50.0;
  double backoff_cap_us = 5000.0;
  /// Per-kernel timeout in simulated microseconds; 0 disables.  A kernel
  /// whose fault-free time already exceeds it can never finish: that is a
  /// persistent fault (degrade immediately, no retries).
  double kernel_timeout_us = 0;
  /// Maximum guard degradations before the run is declared failed.
  int max_degradations = 16;
  /// Optional cooperative cancellation: checked at pass start and
  /// periodically between launches.  An expired token aborts the run with
  /// ok=false, cancelled=true and a "deadline-exceeded" Diagnostic — no
  /// degradation.  Not owned; the caller keeps the token alive for the
  /// duration of the run.  nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Parse a `--run-policy` SPEC: comma-separated `key=value` with keys
/// retries (extra attempts after the first), backoff, backoff-cap, timeout
/// (microseconds) and degradations.  Throws IoError on malformed specs.
RunPolicy parse_run_policy(const std::string& spec);

/// One-line canonical rendering of a policy.
std::string run_policy_str(const RunPolicy& policy);

/// One fault observed during a run, and what the executor did about it.
struct FaultEvent {
  int64_t launch = 0;     // FaultPlan consultation index
  std::string kernel;     // label of the faulting kernel
  FaultKind kind = FaultKind::None;
  int attempt = 0;        // 1-based attempt that faulted; 0 = policy timeout
  std::string action;     // "retry" | "degrade" | "abort"
  std::string threshold;  // guard forced off (action == "degrade")
};

/// Full report of one fault-injected run.
struct RunOutcome {
  bool ok = false;
  /// The run was abandoned because its CancelToken expired (deadline or
  /// explicit cancel) — a scheduling outcome, not an execution fault:
  /// cancelled runs carry a "deadline-exceeded" Diagnostic.
  bool cancelled = false;
  /// Fault-free estimate under the final (possibly degraded) thresholds.
  RunEstimate estimate;
  /// Total simulated wall time: estimate.time_us plus every failed attempt,
  /// backoff wait and abandoned partial run.
  double time_us = 0;
  double overhead_us = 0;  // time_us - estimate.time_us
  int faults = 0;
  int retries = 0;
  int degradations = 0;
  std::vector<FaultEvent> events;
  /// Thresholds forced off, in degradation order.
  std::vector<std::string> degraded;
  /// Effective assignment after degradation; running the interpreter under
  /// it yields values bit-identical to the fault-free run.
  ThresholdEnv thresholds;
  /// Set when !ok: why no surviving version could complete the run.
  std::optional<Diagnostic> error;
};

/// The fault-independent part of running one program on one dataset shape:
/// the shape's PlanDatasetCache plus the launch schedule and estimate of
/// one threshold assignment (the memo's own; the default one unless
/// given), both from one plan descent.  Immutable once built, so any number
/// of threads may run against one memo at once.  Holds a reference to the
/// plan; the caller keeps it alive.
class RunMemo {
 public:
  RunMemo(const DeviceProfile& dev, const KernelPlan& plan,
          const SizeEnv& sizes, ThresholdEnv thresholds = {});

  const DeviceProfile& dev() const { return cache_.dev(); }
  const SizeEnv& sizes() const { return cache_.sizes(); }
  const KernelPlan& plan() const { return plan_; }

  /// Whether `thresholds` is the memo's own assignment (a memo hit).
  bool hit(const ThresholdEnv& thresholds) const;

  /// The launch schedule under `thresholds`: the memo's own on a hit,
  /// otherwise a fresh descent stored in `*scratch`.
  const std::vector<LaunchInfo>& schedule(
      const ThresholdEnv& thresholds,
      std::vector<LaunchInfo>* scratch) const;
  /// The fault-free estimate under `thresholds`, by the same rule.
  RunEstimate estimate(const ThresholdEnv& thresholds) const;

 private:
  const KernelPlan& plan_;
  ThresholdEnv thresholds_;
  PlanDatasetCache cache_;
  std::vector<LaunchInfo> schedule_;
  RunEstimate estimate_;
};

/// Execute one run of `memo` under `thresholds` against `faults` under
/// `policy`.  Never throws on injected faults — an unrecoverable run
/// reports ok=false with a structured Diagnostic.  The FaultPlan advances
/// monotonically across retries and restarts (one consultation per launch
/// attempt), so a given plan yields one deterministic outcome.
RunOutcome run_with_faults(const RunMemo& memo,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy = {});

/// Same, for one run of the compiled program on `dev` (a throwaway memo;
/// see plan_of for a Compiled without a plan).
RunOutcome run_with_faults(const DeviceProfile& dev, const Compiled& c,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy = {});

/// Same, over a bare kernel plan (bench harness entry point).
RunOutcome run_with_faults(const DeviceProfile& dev, const KernelPlan& plan,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy = {});

/// One-line human-readable outcome summary.
std::string outcome_str(const RunOutcome& o);

/// One run of a TieredRuntime.
struct TieredOutcome {
  RunOutcome run;
};

/// A stream of runs of one plan on one device through one RunMemo, rebuilt
/// whenever a run's sizes or thresholds differ from the memo's.  Not
/// thread-safe; holds a reference to the plan (caller keeps it alive).
class TieredRuntime {
 public:
  TieredRuntime(const DeviceProfile& dev, const KernelPlan& plan);

  /// Execute one dataset under the default RunPolicy.  `cancel` (optional,
  /// not owned, must outlive the call) aborts cooperatively once expired.
  TieredOutcome run(const SizeEnv& sizes, const ThresholdEnv& thresholds,
                    FaultPlan& faults, const CancelToken* cancel = nullptr);

  /// The memo the last run used; nullptr before the first run.
  const RunMemo* memo() const { return memo_.get(); }

 private:
  DeviceProfile dev_;
  const KernelPlan& plan_;
  std::unique_ptr<const RunMemo> memo_;
};

}  // namespace incflat
