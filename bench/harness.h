// Shared harness for the per-figure benchmark binaries.
//
// Every binary compiles benchmarks under moderate / incremental flattening,
// autotunes the incremental version on the *training* datasets (Sec. 5.1:
// tuning datasets differ from evaluation datasets), evaluates on the paper's
// datasets for both device profiles, and prints the figure's rows plus a
// qualitative-shape check summary (who wins, roughly by how much, where the
// crossovers fall — the reproduction contract from DESIGN.md).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/faults.h"
#include "src/plan/plan.h"
#include "src/support/str.h"
#include "src/support/table.h"
#include "src/support/trace.h"

namespace incflat::bench {

/// Observability hook for the figure binaries: setting INCFLAT_TRACE=file
/// writes a Chrome trace-event JSON of the whole run, INCFLAT_STATS=1
/// prints the per-phase timing/counter summary to stderr alongside the
/// figure's own output.  Both are flushed at process exit.
class TraceSession {
 public:
  TraceSession() {
    // Touch the trace state before this object finishes constructing, so
    // the state singleton is destroyed after us and the destructor's flush
    // stays valid at process exit.
    trace::reset();
    const char* t = std::getenv("INCFLAT_TRACE");
    const char* s = std::getenv("INCFLAT_STATS");
    if (t && *t) trace_out_ = t;
    stats_ = s && *s;
    if (!trace_out_.empty() || stats_) trace::set_enabled(true);
  }
  ~TraceSession() {
    if (stats_) trace::print_summary(std::cerr);
    if (trace_out_.empty()) return;
    try {
      trace::write_chrome(trace_out_);
      std::cerr << "wrote trace to " << trace_out_ << "\n";
    } catch (const std::exception& e) {
      std::cerr << "trace: " << e.what() << "\n";
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string trace_out_;
  bool stats_ = false;
};

/// The process-wide session; first call decides enablement from the
/// environment.
inline TraceSession& trace_session() {
  static TraceSession s;
  return s;
}

namespace detail {
/// Every figure binary includes this header, so touching the session from
/// a static initializer wires the hook without per-binary code.
inline const bool trace_session_init = (trace_session(), true);
}  // namespace detail

/// A compiled benchmark with tuned thresholds per device.  Each flattening
/// mode is a full exec::compile() product (target program + thresholds +
/// compile-once kernel plan); all pricing below goes through the plans
/// (bit-identical to the legacy IR walker).
struct TunedBench {
  Benchmark bench;
  Compiled moderate;
  Compiled incremental;
  Compiled full;
  std::map<std::string, ThresholdEnv> tuned;  // device name -> thresholds
  std::map<std::string, TuningReport> reports;
};

/// Fault-injection hook for the figure binaries: INCFLAT_FAULTS=SPEC (the
/// same spec grammar as incflatc --faults) makes every sim() run through
/// the fault-tolerant executor, with INCFLAT_FAULT_SEED and
/// INCFLAT_RUN_POLICY pinning the seed and retry/degradation budgets.  Off
/// (the default) leaves the figures bit-identical to a fault-free build.
class FaultSession {
 public:
  FaultSession() {
    const char* f = std::getenv("INCFLAT_FAULTS");
    if (!f || !*f) return;
    try {
      spec_ = parse_fault_spec(f);
      uint64_t seed = 0xb0a7f001ULL;
      if (const char* s = std::getenv("INCFLAT_FAULT_SEED")) {
        seed = read_seed("INCFLAT_FAULT_SEED", s);
      }
      if (const char* p = std::getenv("INCFLAT_RUN_POLICY")) {
        policy_ = parse_run_policy(p);
      }
      plan_ = FaultPlan(spec_, seed);
      enabled_ = spec_.faults_launches();
    } catch (const std::exception& e) {
      std::cerr << "INCFLAT_FAULTS: " << e.what() << "\n";
      std::exit(3);
    }
  }
  FaultSession(const FaultSession&) = delete;
  FaultSession& operator=(const FaultSession&) = delete;

  bool enabled() const { return enabled_; }
  const FaultSpec& spec() const { return spec_; }
  FaultPlan& plan() { return plan_; }
  const RunPolicy& policy() const { return policy_; }

 private:
  FaultSpec spec_;
  FaultPlan plan_;
  RunPolicy policy_;
  bool enabled_ = false;
};

inline FaultSession& fault_session() {
  static FaultSession s;
  return s;
}

/// Price one run via a kernel plan (one-off query; the tuner reuses
/// per-dataset caches internally instead).  Under INCFLAT_FAULTS the run
/// goes through the fault-tolerant executor: the returned time includes
/// retry/degradation overhead, and an unrecoverable run is reported to
/// stderr rather than thrown.
inline RunEstimate sim(const KernelPlan& plan, const DeviceProfile& dev,
                       const SizeEnv& sizes, const ThresholdEnv& thr = {}) {
  FaultSession& fs = fault_session();
  if (fs.enabled()) {
    const RunOutcome out =
        run_with_faults(dev, plan, sizes, thr, fs.plan(), fs.policy());
    if (!out.ok) {
      std::cerr << "fault injection: unrecoverable run: " << outcome_str(out)
                << "\n";
    }
    RunEstimate est = out.estimate;
    est.time_us = out.time_us;
    return est;
  }
  return plan_estimate_run(plan, dev, sizes, thr);
}

/// Compile + autotune a benchmark for the given devices.  `exhaustive`
/// uses the branch-complete oracle search (fast here because runs are
/// simulated); otherwise the stochastic OpenTuner-style search is used.
inline TunedBench prepare(const Benchmark& b,
                          const std::vector<DeviceProfile>& devices,
                          bool exhaustive = true) {
  trace_session();
  trace::Span span("bench.prepare");
  TunedBench t;
  t.bench = b;
  CompileOptions mf_opts;
  mf_opts.flatten.fuse = b.fuse_moderate;
  t.moderate = compile(b.program, FlattenMode::Moderate, mf_opts);
  t.incremental = compile(b.program, FlattenMode::Incremental);
  t.full = compile(b.program, FlattenMode::Full);
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  for (const auto& dev : devices) {
    const KernelPlan& plan = *t.incremental.plan;
    TuningReport rep = exhaustive ? exhaustive_tune(dev, plan, train)
                                  : autotune(dev, plan, train);
    t.tuned[dev.name] = rep.best;
    t.reports[dev.name] = rep;
  }
  return t;
}

/// Simple check collector printed at the end of each binary.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    results_.emplace_back(ok, what);
    if (!ok) ++failures_;
  }

  int print(std::ostream& os) const {
    os << "\nQualitative shape checks (paper claim -> measured):\n";
    for (const auto& [ok, what] : results_) {
      os << "  [" << (ok ? "PASS" : "FAIL") << "] " << what << "\n";
    }
    os << (failures_ == 0 ? "All" : "Some") << " shape checks "
       << (failures_ == 0 ? "passed" : "FAILED") << " (" << failures_ << "/"
       << results_.size() << " failures)\n";
    return failures_;
  }

 private:
  std::vector<std::pair<bool, std::string>> results_;
  int failures_ = 0;
};

inline std::string ratio(double num, double den) {
  return fmt_double(num / den, 2) + "x";
}

}  // namespace incflat::bench
