#include "src/exec/runtime.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

/// Simulated time one failed attempt burns before the fault is observed.
double attempt_cost(const DeviceProfile& dev, const RunPolicy& policy,
                    const LaunchInfo& li, FaultKind kind) {
  switch (kind) {
    case FaultKind::LaunchFailed:
      return dev.launch_overhead_us;  // the launch never started
    case FaultKind::LaunchTimeout:
      // Hung until the watchdog fired (or until it would have finished).
      return policy.kernel_timeout_us > 0 ? policy.kernel_timeout_us
                                          : li.time_us;
    case FaultKind::LocalAllocFailed:
      return dev.launch_overhead_us;  // rejected at allocation time
    case FaultKind::DeviceLost:
      return 10 * dev.launch_overhead_us;  // device reset round-trip
    case FaultKind::None:
      break;
  }
  return 0;
}

double backoff_for(const RunPolicy& policy, int retry_number) {
  double b = policy.backoff_us;
  for (int i = 1; i < retry_number; ++i) b = std::min(b * 2, policy.backoff_cap_us);
  return std::min(b, policy.backoff_cap_us);
}

/// How many launches may pass between CancelToken checks.  Checking every
/// launch would put a clock read on the hot path; every 16th bounds the
/// overshoot past a deadline to a handful of simulated kernels.
constexpr int kCancelCheckStride = 16;

/// Fill `out` as a cancelled (deadline-exceeded) result.  Cancellation is a
/// scheduling outcome, not an execution fault: no degradation happened and
/// none is implied, so callers must not treat it as plan invalidation.
void mark_cancelled(RunOutcome& out, double wasted) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.check = "deadline-exceeded";
  d.context = "run";
  d.message = "run abandoned: the request's deadline expired mid-execution";
  out.error = d;
  out.ok = false;
  out.cancelled = true;
  out.time_us = wasted;
  out.overhead_us = wasted;
  if (trace::enabled()) trace::count("exec.cancelled_runs");
}

}  // namespace

RunMemo::RunMemo(const DeviceProfile& dev, const KernelPlan& plan,
                 const SizeEnv& sizes, ThresholdEnv thresholds)
    : plan_(plan),
      thresholds_(std::move(thresholds)),
      cache_(plan, dev, sizes) {
  plan_descend(plan_, cache_, thresholds_,
               {.estimate = &estimate_, .schedule = &schedule_});
}

bool RunMemo::hit(const ThresholdEnv& thresholds) const {
  return thresholds.default_threshold == thresholds_.default_threshold &&
         thresholds.values == thresholds_.values;
}

const std::vector<LaunchInfo>& RunMemo::schedule(
    const ThresholdEnv& thresholds, std::vector<LaunchInfo>* scratch) const {
  if (hit(thresholds)) return schedule_;
  *scratch = plan_launch_schedule(plan_, cache_, thresholds);
  return *scratch;
}

RunEstimate RunMemo::estimate(const ThresholdEnv& thresholds) const {
  return hit(thresholds) ? estimate_ : plan_estimate(plan_, cache_, thresholds);
}

RunOutcome run_with_faults(const RunMemo& memo,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy) {
  trace::Span span("exec.run");
  RunOutcome out;
  out.thresholds = thresholds;
  double wasted = 0;  // failed attempts, backoffs, abandoned partial runs

  const auto emit_counters = [&out] {
    if (!trace::enabled()) return;
    trace::count("exec.fault_runs");
    trace::count("exec.faults", out.faults);
    trace::count("exec.retries", out.retries);
    trace::count("exec.degradations", out.degradations);
  };

  const auto abort_run = [&](const LaunchInfo& li, FaultKind kind,
                             const std::string& why) {
    out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind, 0,
                                    "abort", ""});
    Diagnostic d;
    d.severity = Severity::Error;
    d.check = "fault-unrecoverable";
    d.context = "run";
    d.message = "kernel '" + li.what + "' failed persistently (" +
                fault_kind_name(kind) + ") and " + why;
    out.error = d;
    out.ok = false;
    out.estimate = memo.estimate(out.thresholds);
    out.time_us = wasted;
    out.overhead_us = wasted;
    emit_counters();
  };

  bool restart = true;
  int since_check = 0;
  std::vector<LaunchInfo> scratch;  // the schedule of a memo miss
  while (restart) {
    restart = false;
    // Pass start is a natural cancellation point: a restart redoes the whole
    // schedule, the most expensive step an expired request could still take.
    if (policy.cancel && policy.cancel->expired()) {
      mark_cancelled(out, wasted);
      out.estimate = memo.estimate(out.thresholds);
      return out;
    }
    const std::vector<LaunchInfo>& sched =
        memo.schedule(out.thresholds, &scratch);
    double completed = 0;  // progress of this pass, wasted if it restarts

    for (const LaunchInfo& li : sched) {
      if (policy.cancel && ++since_check >= kCancelCheckStride) {
        since_check = 0;
        if (policy.cancel->expired()) {
          mark_cancelled(out, wasted + completed);
          out.estimate = memo.estimate(out.thresholds);
          return out;
        }
      }
      // A kernel whose fault-free time already exceeds the per-kernel
      // timeout can never finish: persistent by policy, no launch consult.
      bool persistent = false;
      FaultKind kind = FaultKind::None;
      int attempt = 0;
      if (policy.kernel_timeout_us > 0 &&
          li.time_us > policy.kernel_timeout_us) {
        persistent = true;
        kind = FaultKind::LaunchTimeout;
        ++out.faults;
        wasted += policy.kernel_timeout_us;
      }
      while (!persistent) {
        ++attempt;
        kind = faults.next_launch();
        if (kind == FaultKind::None) break;  // the launch succeeded
        ++out.faults;
        wasted += attempt_cost(memo.dev(), policy, li, kind);
        if (kind == FaultKind::LocalAllocFailed ||
            attempt >= policy.max_attempts) {
          persistent = true;
          break;
        }
        ++out.retries;
        wasted += backoff_for(policy, attempt);
        out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind,
                                        attempt, "retry", ""});
      }
      if (!persistent) {
        completed += li.time_us;
        continue;
      }

      // Persistent fault: fall back to the next surviving guarded sibling
      // by forcing the innermost taken guard on this kernel's path off.
      wasted += completed;  // partial progress is thrown away
      const auto taken = std::find_if(
          li.guard_path.rbegin(), li.guard_path.rend(),
          [](const std::pair<int, bool>& g) { return g.second; });
      if (taken == li.guard_path.rend()) {
        abort_run(li, kind, "no surviving sibling version remains");
        return out;
      }
      if (out.degradations >= policy.max_degradations) {
        abort_run(li, kind, "the degradation budget is exhausted");
        return out;
      }
      const std::string& name =
          memo.plan().guards[static_cast<size_t>(taken->first)].threshold;
      out.thresholds.values[name] = int64_t{1} << 62;
      ++out.degradations;
      out.degraded.push_back(name);
      out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind,
                                      attempt, "degrade", name});
      restart = true;
      break;
    }
  }

  out.ok = true;
  out.estimate = memo.estimate(out.thresholds);
  out.overhead_us = wasted;
  out.time_us = out.estimate.time_us + wasted;
  emit_counters();
  return out;
}

RunPolicy parse_run_policy(const std::string& spec) {
  RunPolicy p;
  if (spec.empty() || spec == "default") return p;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const SpecItem& it : split_spec(spec, "run-policy")) {
    const std::string what = "run-policy: " + it.key;
    if (it.key == "retries") {
      p.max_attempts =
          1 + static_cast<int>(read_int(what, it.value, 0, INT_MAX - 1));
    } else if (it.key == "backoff") {
      p.backoff_us = read_real(what, it.value, 0, kInf);
    } else if (it.key == "backoff-cap") {
      p.backoff_cap_us = read_real(what, it.value, 0, kInf);
    } else if (it.key == "timeout") {
      p.kernel_timeout_us = read_real(what, it.value, 0, kInf);
    } else if (it.key == "degradations") {
      p.max_degradations =
          static_cast<int>(read_int(what, it.value, 0, INT_MAX));
    } else {
      throw IoError("run-policy: unknown key '" + it.key + "'");
    }
  }
  return p;
}

std::string run_policy_str(const RunPolicy& policy) {
  std::ostringstream os;
  os << "retries=" << (policy.max_attempts - 1)
     << ",backoff=" << fmt_double(policy.backoff_us, 1)
     << ",backoff-cap=" << fmt_double(policy.backoff_cap_us, 1)
     << ",timeout=" << fmt_double(policy.kernel_timeout_us, 1)
     << ",degradations=" << policy.max_degradations;
  return os.str();
}

RunOutcome run_with_faults(const DeviceProfile& dev, const Compiled& c,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy) {
  const std::shared_ptr<const KernelPlan> plan = plan_of(c);
  const RunMemo memo(dev, *plan, sizes, thresholds);
  return run_with_faults(memo, thresholds, faults, policy);
}

RunOutcome run_with_faults(const DeviceProfile& dev, const KernelPlan& plan,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy) {
  const RunMemo memo(dev, plan, sizes, thresholds);
  return run_with_faults(memo, thresholds, faults, policy);
}

TieredRuntime::TieredRuntime(const DeviceProfile& dev, const KernelPlan& plan)
    : dev_(dev), plan_(plan) {}

TieredOutcome TieredRuntime::run(const SizeEnv& sizes,
                                 const ThresholdEnv& thresholds,
                                 FaultPlan& faults,
                                 const CancelToken* cancel) {
  if (!memo_ || memo_->sizes() != sizes || !memo_->hit(thresholds)) {
    memo_ = std::make_unique<const RunMemo>(dev_, plan_, sizes, thresholds);
  }
  RunPolicy policy;
  policy.cancel = cancel;
  return {run_with_faults(*memo_, thresholds, faults, policy)};
}

std::string outcome_str(const RunOutcome& o) {
  std::ostringstream os;
  if (o.ok) {
    os << "ok in " << fmt_us(o.time_us);
    if (o.overhead_us > 0) {
      os << " (" << fmt_us(o.overhead_us) << " fault overhead)";
    }
  } else {
    os << "FAILED after " << fmt_us(o.time_us) << ": "
       << (o.error ? o.error->message : "unknown error");
  }
  os << "; " << o.faults << " fault(s), " << o.retries << " retr"
     << (o.retries == 1 ? "y" : "ies") << ", " << o.degradations
     << " degradation(s)";
  if (!o.degraded.empty()) {
    os << " [";
    for (size_t i = 0; i < o.degraded.size(); ++i) {
      os << (i ? ", " : "") << o.degraded[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace incflat
