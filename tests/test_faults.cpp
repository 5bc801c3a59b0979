// Fault injection, graceful degradation, and the crash-safe noisy tuner.
//
// Covers the robustness contract end to end:
//   * FaultSpec / RunPolicy parsing and canonical round-trips;
//   * FaultPlan determinism (same seed => same sequence) and scripted
//     schedules;
//   * plan_launch_schedule agrees with plan_cost and carries guard paths;
//   * retry/backoff accounting to the microsecond on scripted faults;
//   * the degradation chain on every benchsuite program and both devices:
//     a degraded run's values are bit-identical to the source program's
//     (the interpreter oracle);
//   * unrecoverable runs return a structured Diagnostic, never throw;
//   * runs through a RunMemo — memo hits, tree descents after a drift or
//     a threshold flip — are bit-identical to the plain runtime and to the
//     tree oracle;
//   * the noisy median-of-k tuner still finds the exhaustive oracle's
//     quality on the Fig. 2 matmul, candidates that time out are marked
//     infeasible, the wall-clock budget stops the search gracefully, and a
//     crash-truncated journal resumes to a bit-identical TuningReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/gpusim/faults.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

// ---------------------------------------------------------------------------
// FaultSpec / RunPolicy parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesKindsAndRoundTrips) {
  const FaultSpec s = parse_fault_spec(
      "launch-failed=0.1,launch-timeout=0.2,local-alloc=0.05,"
      "device-lost=0.01,noise=0.3");
  EXPECT_DOUBLE_EQ(s.launch_failed, 0.1);
  EXPECT_DOUBLE_EQ(s.launch_timeout, 0.2);
  EXPECT_DOUBLE_EQ(s.local_alloc, 0.05);
  EXPECT_DOUBLE_EQ(s.device_lost, 0.01);
  EXPECT_DOUBLE_EQ(s.noise, 0.3);
  EXPECT_TRUE(s.enabled());
  // The canonical rendering parses back to the same spec.
  const FaultSpec back = parse_fault_spec(fault_spec_str(s));
  EXPECT_DOUBLE_EQ(back.launch_failed, s.launch_failed);
  EXPECT_DOUBLE_EQ(back.launch_timeout, s.launch_timeout);
  EXPECT_DOUBLE_EQ(back.local_alloc, s.local_alloc);
  EXPECT_DOUBLE_EQ(back.device_lost, s.device_lost);
  EXPECT_DOUBLE_EQ(back.noise, s.noise);
}

TEST(FaultSpec, AllShorthandSpreadsEvenly) {
  const FaultSpec s = parse_fault_spec("all=0.02");
  EXPECT_DOUBLE_EQ(s.launch_failed, 0.005);
  EXPECT_DOUBLE_EQ(s.launch_timeout, 0.005);
  EXPECT_DOUBLE_EQ(s.local_alloc, 0.005);
  EXPECT_DOUBLE_EQ(s.device_lost, 0.005);
  EXPECT_DOUBLE_EQ(s.noise, 0.0);
}

TEST(FaultSpec, OffAndEmptyDisable) {
  EXPECT_FALSE(parse_fault_spec("").enabled());
  EXPECT_FALSE(parse_fault_spec("off").enabled());
  EXPECT_FALSE(parse_fault_spec("none").enabled());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("all=zzz"), IoError);
  EXPECT_THROW(parse_fault_spec("launch-failed=1.5"), IoError);
  EXPECT_THROW(parse_fault_spec("launch-failed=-0.1"), IoError);
  EXPECT_THROW(parse_fault_spec("bogus-key=0.1"), IoError);
  EXPECT_THROW(parse_fault_spec("launch-failed"), IoError);
  // Launch rates must sum to a probability.
  EXPECT_THROW(parse_fault_spec("launch-failed=0.6,device-lost=0.6"),
               IoError);
  // Noise is a relative amplitude in [0, 1).
  EXPECT_THROW(parse_fault_spec("noise=1.0"), IoError);
  // NaN fails every range check by comparing false, so the reader itself
  // must refuse it.
  EXPECT_THROW(parse_fault_spec("launch-failed=nan"), IoError);
  EXPECT_THROW(parse_fault_spec("noise=nan"), IoError);
  // Scripted entries need a known kind and a non-negative integer index.
  EXPECT_THROW(parse_fault_spec("bogus@0"), IoError);
  EXPECT_THROW(parse_fault_spec("local-alloc@-1"), IoError);
  EXPECT_THROW(parse_fault_spec("local-alloc@x"), IoError);
  EXPECT_THROW(parse_fault_spec("noise@0"), IoError);
}

TEST(FaultSpec, ScriptedEntriesParseRoundTripAndSeedThePlan) {
  const FaultSpec s =
      parse_fault_spec("local-alloc@0,device-lost@3,launch-failed=0.25");
  ASSERT_EQ(s.script.size(), 2u);
  EXPECT_EQ(s.script[0].first, 0);
  EXPECT_EQ(s.script[0].second, FaultKind::LocalAllocFailed);
  EXPECT_EQ(s.script[1].first, 3);
  EXPECT_EQ(s.script[1].second, FaultKind::DeviceLost);
  const FaultSpec back = parse_fault_spec(fault_spec_str(s));
  EXPECT_EQ(back.script, s.script);
  EXPECT_EQ(back.launch_failed, s.launch_failed);

  // A script-only spec has a zero launch rate but still faults launches.
  const FaultSpec only = parse_fault_spec("local-alloc@2");
  EXPECT_EQ(only.launch_rate(), 0.0);
  EXPECT_TRUE(only.faults_launches());
  EXPECT_TRUE(only.enabled());

  // The plan honours the spec's script without consuming any randomness.
  FaultPlan plan(only, 17);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.next_launch(), FaultKind::None);
  EXPECT_EQ(plan.next_launch(), FaultKind::None);
  EXPECT_EQ(plan.next_launch(), FaultKind::LocalAllocFailed);
  EXPECT_EQ(plan.next_launch(), FaultKind::None);
}

TEST(RunPolicy, ParsesAndRoundTrips) {
  const RunPolicy p =
      parse_run_policy("retries=2,backoff=10,backoff-cap=100,timeout=500,"
                       "degradations=3");
  EXPECT_EQ(p.max_attempts, 3);  // first try + 2 retries
  EXPECT_DOUBLE_EQ(p.backoff_us, 10);
  EXPECT_DOUBLE_EQ(p.backoff_cap_us, 100);
  EXPECT_DOUBLE_EQ(p.kernel_timeout_us, 500);
  EXPECT_EQ(p.max_degradations, 3);
  const RunPolicy back = parse_run_policy(run_policy_str(p));
  EXPECT_EQ(back.max_attempts, p.max_attempts);
  EXPECT_DOUBLE_EQ(back.backoff_us, p.backoff_us);
  EXPECT_EQ(back.max_degradations, p.max_degradations);
}

TEST(RunPolicy, DefaultsAndErrors) {
  const RunPolicy d = parse_run_policy("");
  EXPECT_EQ(d.max_attempts, 4);
  EXPECT_EQ(parse_run_policy("default").max_attempts, d.max_attempts);
  // Counts are range-checked before they become ints.
  for (const char* bad :
       {"retries=-1", "retries=1.5", "retries=1e300", "retries=nan",
        "retries=2147483647", "degradations=1e300", "backoff=inf",
        "nonsense", "unknown=1"}) {
    EXPECT_THROW(parse_run_policy(bad), IoError) << bad;
  }
  const int most = std::numeric_limits<int>::max();
  EXPECT_EQ(parse_run_policy("retries=2147483646").max_attempts, most);
  EXPECT_EQ(parse_run_policy("degradations=2147483647").max_degradations,
            most);
}

// ---------------------------------------------------------------------------
// FaultPlan determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedSameSequence) {
  const FaultSpec spec = parse_fault_spec("all=0.2,noise=0.1");
  FaultPlan a(spec, 42), b(spec, 42), c(spec, 43);
  bool differs_from_c = false;
  for (int i = 0; i < 1000; ++i) {
    const FaultKind ka = a.next_launch();
    EXPECT_EQ(ka, b.next_launch()) << "launch " << i;
    EXPECT_DOUBLE_EQ(a.noise_factor(), b.noise_factor()) << "noise " << i;
    if (ka != c.next_launch()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);  // a different seed gives a different plan
}

TEST(FaultPlan, ResetReplaysFromTheSeed) {
  const FaultSpec spec = parse_fault_spec("all=0.3");
  FaultPlan p(spec, 7);
  std::vector<FaultKind> first;
  for (int i = 0; i < 100; ++i) first.push_back(p.next_launch());
  p.reset();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.next_launch(), first[static_cast<size_t>(i)]) << i;
  }
}

TEST(FaultPlan, ScriptedFaultsFireAtTheirIndexOnly) {
  FaultPlan p;  // zero rates: nothing random can fire
  p.script(3, FaultKind::DeviceLost);
  p.script(5, FaultKind::LocalAllocFailed);
  for (int i = 0; i < 10; ++i) {
    const FaultKind k = p.next_launch();
    if (i == 3) {
      EXPECT_EQ(k, FaultKind::DeviceLost);
    } else if (i == 5) {
      EXPECT_EQ(k, FaultKind::LocalAllocFailed);
    } else {
      EXPECT_EQ(k, FaultKind::None);
    }
  }
  EXPECT_EQ(p.launches(), 10);
}

TEST(FaultPlan, ScriptedOverridesConsumeNoRandomness) {
  // Two plans with the same seed, one with a scripted override: the random
  // sequence after the scripted index must be unaffected.
  const FaultSpec spec = parse_fault_spec("all=0.25");
  FaultPlan plain(spec, 99), scripted(spec, 99);
  scripted.script(0, FaultKind::DeviceLost);
  EXPECT_EQ(scripted.next_launch(), FaultKind::DeviceLost);
  const FaultKind first_random = plain.next_launch();
  (void)first_random;
  // From index 1 on, `scripted` is one draw *behind* plain — replay both
  // from scratch to compare aligned sequences instead.
  plain.reset();
  scripted.reset();
  std::vector<FaultKind> seq_plain, seq_scripted;
  for (int i = 0; i < 50; ++i) seq_plain.push_back(plain.next_launch());
  for (int i = 0; i < 50; ++i) seq_scripted.push_back(scripted.next_launch());
  EXPECT_EQ(seq_scripted[0], FaultKind::DeviceLost);
  // The scripted launch consumed no draw, so scripted[i] == plain[i-1].
  for (int i = 1; i < 50; ++i) {
    EXPECT_EQ(seq_scripted[static_cast<size_t>(i)],
              seq_plain[static_cast<size_t>(i - 1)])
        << i;
  }
}

// ---------------------------------------------------------------------------
// plan_launch_schedule
// ---------------------------------------------------------------------------

TEST(LaunchSchedule, SumsToPlanCostAndCarriesGuardPaths) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  ASSERT_TRUE(c.plan && !c.plan->legacy_fallback);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;
  const PlanDatasetCache cache(*c.plan, dev, sizes);

  ThresholdEnv all_on;
  all_on.default_threshold = 1;
  for (const ThresholdEnv& env : {ThresholdEnv{}, all_on}) {
    const std::vector<LaunchInfo> sched =
        plan_launch_schedule(*c.plan, cache, env);
    ASSERT_FALSE(sched.empty());
    double total = 0;
    for (const LaunchInfo& li : sched) total += li.time_us;
    const double want = plan_cost(*c.plan, cache, env);
    EXPECT_NEAR(total, want, 1e-9 * std::max(1.0, want));
  }

  // Under the all-on assignment the selected kernels sit below taken
  // guards: the degradation chain must be visible on their paths, each
  // step naming one of the plan's guards.
  bool some_taken = false;
  for (const LaunchInfo& li : plan_launch_schedule(*c.plan, cache, all_on)) {
    for (const auto& [guard, taken] : li.guard_path) {
      EXPECT_GE(guard, 0);
      EXPECT_LT(static_cast<size_t>(guard), c.plan->guards.size());
      if (taken) some_taken = true;
    }
  }
  EXPECT_TRUE(some_taken);
}

// ---------------------------------------------------------------------------
// Retry / backoff accounting (scripted, exact to the microsecond)
// ---------------------------------------------------------------------------

TEST(FaultedRun, TransientFaultsRetryWithExponentialBackoff) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();  // launch_overhead_us = 5.0
  const SizeEnv sizes = b.datasets.at(0).sizes;
  const RunEstimate fault_free = simulate(dev, c, sizes, {});

  // Launches 0 and 1 fail transiently, launch 2 (second attempt of the
  // first kernel... actually third) succeeds.
  FaultPlan faults;
  faults.script(0, FaultKind::LaunchFailed);
  faults.script(1, FaultKind::LaunchFailed);
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.faults, 2);
  EXPECT_EQ(out.retries, 2);
  EXPECT_EQ(out.degradations, 0);
  // Each failed launch burns launch_overhead_us (5); backoffs are 50 then
  // 100 (50 * 2^1), so the overhead is exactly 2*5 + 50 + 100.
  EXPECT_DOUBLE_EQ(out.overhead_us, 160.0);
  EXPECT_DOUBLE_EQ(out.time_us, fault_free.time_us + 160.0);
  EXPECT_DOUBLE_EQ(out.estimate.time_us, fault_free.time_us);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].action, "retry");
  EXPECT_EQ(out.events[0].attempt, 1);
  EXPECT_EQ(out.events[1].attempt, 2);
}

TEST(FaultedRun, DeviceLostCostsAResetRoundTrip) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  FaultPlan faults;
  faults.script(0, FaultKind::DeviceLost);
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.faults, 1);
  EXPECT_EQ(out.retries, 1);
  // 10x launch overhead for the reset plus the first backoff of 50.
  EXPECT_DOUBLE_EQ(out.overhead_us, 10 * dev.launch_overhead_us + 50.0);
}

TEST(FaultedRun, BackoffIsCapped) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  // 6 transient faults in a row with a tiny cap: backoffs are
  // min(50*2^k, 80) = 50, 80, 80, 80, 80, and the 6th attempt succeeds.
  RunPolicy policy = parse_run_policy("retries=8,backoff=50,backoff-cap=80");
  FaultPlan faults;
  for (int i = 0; i < 5; ++i) faults.script(i, FaultKind::LaunchFailed);
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults, policy);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.retries, 5);
  EXPECT_DOUBLE_EQ(out.overhead_us, 5 * 5.0 + 50 + 80 + 80 + 80 + 80);
}

// ---------------------------------------------------------------------------
// Degradation chain: every benchmark, both devices, interpreter oracle
// ---------------------------------------------------------------------------

class DegradationSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(DegradationSuite, DegradedRunsAreValueIdenticalToTheSource) {
  const Benchmark b = get_benchmark(GetParam());
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  Rng rng(0xabc);
  const std::vector<Value> inputs = b.gen_inputs(rng, b.test_sizes);
  const Values want = execute_source(c, b.test_sizes, inputs);

  // Threshold 1 turns every guard on at the interpreter-sized datasets, so
  // the run starts on the most-parallel version with the whole chain of
  // sibling versions below it.
  ThresholdEnv all_on;
  all_on.default_threshold = 1;

  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    // A scripted persistent fault on the first launch forces at least one
    // degradation (when a taken guard exists at these sizes).
    FaultPlan scripted;
    scripted.script(0, FaultKind::LocalAllocFailed);
    const RunOutcome one =
        run_with_faults(dev, c, b.test_sizes, all_on, scripted);
    if (one.ok && one.degradations > 0) {
      const Values got = execute(dev, c, b.test_sizes, one.thresholds, inputs);
      ASSERT_EQ(got.size(), want.size()) << b.name << " " << dev.name;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].approx_equal(want[i], 0))
            << b.name << " on " << dev.name << ": degraded run diverged";
      }
    }

    // A heavy random local-alloc rate walks further down the chain; every
    // recoverable outcome must stay bit-identical, every unrecoverable one
    // must carry a structured diagnostic.
    for (uint64_t seed : {1u, 2u, 3u}) {
      FaultPlan heavy(parse_fault_spec("local-alloc=0.5"), seed);
      const RunOutcome out =
          run_with_faults(dev, c, b.test_sizes, all_on, heavy);
      if (!out.ok) {
        ASSERT_TRUE(out.error.has_value());
        EXPECT_EQ(out.error->check, "fault-unrecoverable");
        continue;
      }
      EXPECT_EQ(static_cast<int>(out.degraded.size()), out.degradations);
      const Values got = execute(dev, c, b.test_sizes, out.thresholds, inputs);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].approx_equal(want[i], 0))
            << b.name << " on " << dev.name << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DegradationSuite,
                         ::testing::ValuesIn(all_benchmark_names()),
                         [](const auto& info) { return info.param; });

TEST(FaultedRun, DegradationForcesTheInnermostTakenGuardOff) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;  // large: guards taken

  FaultPlan faults;
  faults.script(0, FaultKind::LocalAllocFailed);
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.degradations, 1);
  ASSERT_EQ(out.degraded.size(), 1u);
  // The forced guard reads as "always off" in the effective assignment.
  EXPECT_EQ(out.thresholds.values.at(out.degraded[0]), int64_t{1} << 62);
  // And the degrade event names it.
  ASSERT_FALSE(out.events.empty());
  EXPECT_EQ(out.events.back().action, "degrade");
  EXPECT_EQ(out.events.back().threshold, out.degraded[0]);
  // The degraded estimate prices the *sibling* version: selection changed.
  const RunEstimate fault_free = simulate(dev, c, sizes, {});
  EXPECT_NE(out.estimate.time_us, fault_free.time_us);
}

TEST(FaultedRun, AllVersionsFailingReturnsAStructuredDiagnostic) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  // Every launch alloc-fails: the chain degrades to the fully flattened
  // leaf, which then also faults persistently — no sibling remains.
  FaultPlan faults(parse_fault_spec("local-alloc=1"), 0);
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults);
  EXPECT_FALSE(out.ok);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->severity, Severity::Error);
  EXPECT_EQ(out.error->check, "fault-unrecoverable");
  EXPECT_NE(out.error->message.find("no surviving sibling"),
            std::string::npos);
  ASSERT_FALSE(out.events.empty());
  EXPECT_EQ(out.events.back().action, "abort");
  EXPECT_GT(out.time_us, 0);  // the failed attempts still cost time
}

TEST(FaultedRun, DegradationBudgetIsEnforced) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  FaultPlan faults(parse_fault_spec("local-alloc=1"), 0);
  const RunPolicy policy = parse_run_policy("degradations=1");
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults, policy);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.degradations, 1);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_NE(out.error->message.find("degradation budget"), std::string::npos);
}

TEST(FaultedRun, PolicyTimeoutDegradesKernelsThatCanNeverFinish) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  // A 1us per-kernel timeout is below every matmul kernel's fault-free
  // time: every version times out persistently and the run ends in a
  // structured failure (never an exception).
  FaultPlan faults;  // no injected faults: the timeout alone triggers
  const RunPolicy policy = parse_run_policy("timeout=1");
  const RunOutcome out = run_with_faults(dev, c, sizes, {}, faults, policy);
  EXPECT_FALSE(out.ok);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->check, "fault-unrecoverable");
  EXPECT_GT(out.degradations, 0);  // it walked the chain before giving up
}

TEST(FaultedRun, DisabledFaultPlanIsBitIdenticalToSimulate) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  for (const auto& ds : b.datasets) {
    FaultPlan none;
    const RunOutcome out = run_with_faults(dev, c, ds.sizes, {}, none);
    const RunEstimate est = simulate(dev, c, ds.sizes, {});
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.faults, 0);
    EXPECT_DOUBLE_EQ(out.overhead_us, 0);
    EXPECT_DOUBLE_EQ(out.time_us, est.time_us);
    EXPECT_DOUBLE_EQ(out.estimate.time_us, est.time_us);
  }
}

// ---------------------------------------------------------------------------
// Run memo: memo hits and rebuilds are bit-identical to the plain runtime
// ---------------------------------------------------------------------------

void expect_same_estimate(const RunEstimate& a, const RunEstimate& b,
                          const std::string& ctx) {
  EXPECT_EQ(a.time_us, b.time_us) << ctx;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches) << ctx;
  EXPECT_EQ(a.total.flops, b.total.flops) << ctx;
  EXPECT_EQ(a.total.gbytes, b.total.gbytes) << ctx;
  EXPECT_EQ(a.total.lbytes, b.total.lbytes) << ctx;
  ASSERT_EQ(a.kernels.size(), b.kernels.size()) << ctx;
  for (size_t i = 0; i < a.kernels.size(); ++i) {
    const std::string kctx = ctx + " kernel #" + std::to_string(i);
    EXPECT_EQ(a.kernels[i].what, b.kernels[i].what) << kctx;
    EXPECT_EQ(a.kernels[i].time_us, b.kernels[i].time_us) << kctx;
    EXPECT_EQ(a.kernels[i].threads, b.kernels[i].threads) << kctx;
    EXPECT_EQ(a.kernels[i].work.flops, b.kernels[i].work.flops) << kctx;
    EXPECT_EQ(a.kernels[i].work.gbytes, b.kernels[i].work.gbytes) << kctx;
    EXPECT_EQ(a.kernels[i].work.lbytes, b.kernels[i].work.lbytes) << kctx;
    EXPECT_EQ(a.kernels[i].used_local_fallback,
              b.kernels[i].used_local_fallback)
        << kctx;
  }
  EXPECT_EQ(a.guards, b.guards) << ctx;
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b,
                         const std::string& ctx) {
  EXPECT_EQ(a.ok, b.ok) << ctx;
  EXPECT_EQ(a.cancelled, b.cancelled) << ctx;
  EXPECT_EQ(a.time_us, b.time_us) << ctx;
  EXPECT_EQ(a.overhead_us, b.overhead_us) << ctx;
  EXPECT_EQ(a.faults, b.faults) << ctx;
  EXPECT_EQ(a.retries, b.retries) << ctx;
  EXPECT_EQ(a.degradations, b.degradations) << ctx;
  EXPECT_EQ(a.degraded, b.degraded) << ctx;
  EXPECT_EQ(a.thresholds.values, b.thresholds.values) << ctx;
  EXPECT_EQ(a.thresholds.default_threshold, b.thresholds.default_threshold)
      << ctx;
  ASSERT_EQ(a.events.size(), b.events.size()) << ctx;
  for (size_t i = 0; i < a.events.size(); ++i) {
    const std::string ectx = ctx + " event #" + std::to_string(i);
    EXPECT_EQ(a.events[i].launch, b.events[i].launch) << ectx;
    EXPECT_EQ(a.events[i].kernel, b.events[i].kernel) << ectx;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << ectx;
    EXPECT_EQ(a.events[i].attempt, b.events[i].attempt) << ectx;
    EXPECT_EQ(a.events[i].action, b.events[i].action) << ectx;
    EXPECT_EQ(a.events[i].threshold, b.events[i].threshold) << ectx;
  }
  ASSERT_EQ(a.error.has_value(), b.error.has_value()) << ctx;
  if (a.error) {
    EXPECT_EQ(a.error->str(), b.error->str()) << ctx;
  }
  expect_same_estimate(a.estimate, b.estimate, ctx);
}

TEST(RunMemo, TieredRunsAreBitIdenticalToThePlainRuntime) {
  const FaultSpec spec = parse_fault_spec("all=0.05");
  // Threshold 1 turns every guard on at interpreter sizes: a memo of a
  // non-default assignment, with guarded siblings to degrade to.
  ThresholdEnv all_on;
  all_on.default_threshold = 1;
  int faulted = 0;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      for (const ThresholdEnv& thr : {ThresholdEnv{}, all_on}) {
        for (int s = 1; s <= 3; ++s) {
          const std::string ctx = name + "/" + dev.name + " threshold " +
                                  std::to_string(thr.default_threshold) +
                                  " seed " + std::to_string(s);
          // Short schedules consume only a stream's first draws, so the
          // run identity is mixed into the seed: bare seeds 1-3 would give
          // every run the same few, fault-free, decisions.
          const uint64_t seed = journal_hash(ctx.data(), ctx.size());
          FaultPlan plain_faults(spec, seed);
          const RunOutcome plain =
              run_with_faults(dev, c, b.test_sizes, thr, plain_faults);
          faulted += plain.faults > 0;

          TieredRuntime rt(dev, *c.plan);
          FaultPlan first_faults(spec, seed);
          expect_same_outcome(rt.run(b.test_sizes, thr, first_faults).run,
                              plain, ctx + " first run");
          const RunMemo* memo = rt.memo();
          ASSERT_NE(memo, nullptr) << ctx;
          // Same shape and thresholds: a memo hit on a fresh fault stream.
          FaultPlan hit_faults(spec, seed);
          expect_same_outcome(rt.run(b.test_sizes, thr, hit_faults).run,
                              plain, ctx + " memo hit");
          EXPECT_EQ(rt.memo(), memo) << ctx << ": the memo was rebuilt";
        }
      }
    }
  }
  EXPECT_GT(faulted, 0) << "the fault spec never fired";
}

TEST(RunMemo, DriftingStreamsStayBitIdenticalToTheTreeOracle) {
  int64_t hits = 0, rebuilds = 0;
  Rng rng(0x57e91);
  ThresholdEnv flipped;
  flipped.default_threshold = 1;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    const KernelPlan& plan = *c.plan;
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      TieredRuntime rt(dev, plan);
      // A 28-run stream: stretches of the stable Table 1 dataset, broken by
      // adversarial drift — the other dataset, interpreter-tiny sizes, and
      // random power-of-two rescalings — and by threshold flips.
      const SizeEnv stable = b.datasets.at(0).sizes;
      for (int i = 0; i < 28; ++i) {
        SizeEnv sizes = stable;
        if (i >= 8 && rng.flip(0.25)) {
          const int pick = static_cast<int>(rng.uniform_int(0, 2));
          if (pick == 0 && b.datasets.size() > 1) {
            sizes = b.datasets.at(1).sizes;
          } else if (pick == 1) {
            sizes = b.test_sizes;
          } else {
            for (auto& [n, v] : sizes) {
              const int e = static_cast<int>(rng.uniform_int(-8, 1));
              v = std::max<int64_t>(1, e < 0 ? v >> -e : v << e);
            }
          }
        }
        const ThresholdEnv& thr =
            i == 24 || (i >= 8 && rng.flip(0.15)) ? flipped : ThresholdEnv{};
        const RunMemo* before = rt.memo();
        FaultPlan faults;
        const TieredOutcome t = rt.run(sizes, thr, faults);
        (rt.memo() == before ? hits : rebuilds) += 1;
        const std::string ctx =
            name + "/" + dev.name + " run " + std::to_string(i);
        ASSERT_TRUE(t.run.ok) << ctx;
        expect_same_estimate(t.run.estimate,
                             plan_estimate_run(plan, dev, sizes, thr), ctx);
      }
    }
  }
  // Both halves of the runtime ran: memo hits and rebuilds.
  EXPECT_GT(hits, 0);
  EXPECT_GT(rebuilds, 0);
}

// ---------------------------------------------------------------------------
// Noisy, fallible, crash-safe tuning
// ---------------------------------------------------------------------------

std::vector<TuningDataset> training_sets(const Benchmark& b) {
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  return train;
}

TEST(NoisyTuner, StillFindsTheExhaustiveOracleQualityOnMatmul) {
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);

  const TuningReport oracle = exhaustive_tune(dev, *fr.plan, train);

  TunerOptions topts;
  topts.noise = 0.05;        // +-5% multiplicative measurement noise
  topts.failure_rate = 0.02; // 2% of measurements crash outright
  TuningReport noisy = autotune(dev, *fr.plan, train, topts);

  // Judge the noisy search by the *true* cost of its chosen assignment:
  // median-of-5 re-measurement keeps it at the oracle's quality.
  const double true_best =
      tuning_cost(dev, fr.flat.program, train, noisy.best);
  EXPECT_LE(true_best, oracle.best_cost_us * 1.02)
      << "noisy tuner lost more than 2% to the exhaustive oracle";
}

TEST(NoisyTuner, NoiseFreeOptionsAreBitIdenticalToTheDefaultSearch) {
  // A session with a journal but no noise must not change the search.
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);

  const TuningReport plain = autotune(dev, *fr.plan, train, {});
  TunerOptions jopts;
  const std::string path = "/tmp/incflat_test_plainjournal.journal";
  jopts.journal = path;
  const TuningReport journaled = autotune(dev, *fr.plan, train, jopts);
  std::remove(path.c_str());

  EXPECT_EQ(journaled.best_cost_us, plain.best_cost_us);
  EXPECT_EQ(journaled.best.values, plain.best.values);
  EXPECT_EQ(journaled.trials, plain.trials);
  EXPECT_EQ(journaled.evaluations, plain.evaluations);
  EXPECT_EQ(journaled.dedup_hits, plain.dedup_hits);
}

TEST(NoisyTuner, EveryMeasurementFailingMarksInfeasibleInsteadOfAborting) {
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);

  TunerOptions topts;
  topts.failure_rate = 1.0;  // every measurement of every candidate fails
  const TuningReport rep = autotune(dev, *fr.plan, train, topts);
  EXPECT_GT(rep.infeasible, 0);
  EXPECT_EQ(rep.infeasible, rep.evaluations);
  // Nothing was adoptable: the incumbent stays the default assignment.
  EXPECT_TRUE(rep.best.values.empty());
  EXPECT_TRUE(std::isinf(rep.best_cost_us));
}

TEST(NoisyTuner, WallClockBudgetStopsGracefully) {
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);

  TunerOptions topts;
  topts.max_trials = 200000;  // would take far longer than the budget
  topts.budget_ms = 5;
  const TuningReport rep = autotune(dev, *fr.plan, train, topts);
  EXPECT_TRUE(rep.early_stopped);
  EXPECT_LT(rep.trials, topts.max_trials);
  // The incumbent is still a valid report.
  EXPECT_GT(rep.best_cost_us, 0);
  EXPECT_LE(rep.best_cost_us, rep.default_cost_us);
}

// ---------------------------------------------------------------------------
// Journal: crash-truncated resume is bit-identical
// ---------------------------------------------------------------------------

TEST(Journal, ResumeAfterCrashIsBitIdentical) {
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);
  const std::string path = "/tmp/incflat_test_resume.journal";

  TunerOptions topts;
  topts.noise = 0.05;
  topts.failure_rate = 0.02;
  topts.journal = path;

  // Reference: one uninterrupted journaled run.
  const TuningReport full = autotune(dev, *fr.plan, train, topts);

  // Simulate the crash: keep the header and roughly half the evaluation
  // lines, tearing the final kept line mid-token (as an interrupted append
  // would).
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);  // magic + meta + a few entries
  const size_t keep = 2 + (lines.size() - 2) / 2;
  {
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
    out << lines[keep].substr(0, lines[keep].size() / 2);  // torn, no '\n'
  }

  TunerOptions ropts = topts;
  ropts.resume = true;
  const TuningReport resumed = autotune(dev, *fr.plan, train, ropts);
  std::remove(path.c_str());

  EXPECT_EQ(resumed.best_cost_us, full.best_cost_us);
  EXPECT_EQ(resumed.best.values, full.best.values);
  EXPECT_EQ(resumed.trials, full.trials);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.dedup_hits, full.dedup_hits);
  EXPECT_EQ(resumed.default_cost_us, full.default_cost_us);
  EXPECT_EQ(resumed.journal_replayed, static_cast<int>(keep) - 2);
  EXPECT_GT(resumed.journal_replayed, 0);
}

TEST(Journal, InterleavedAppendersNeverTearLines) {
  // Several handles appending to one journal path concurrently (two tuner
  // processes sharing a path, or a daemon journaling from its workers) may
  // interleave only at line granularity: the fd is O_APPEND and each line
  // is issued as a single write(2).  Every appended entry must replay
  // bit-identically — no torn, merged, or dropped lines.
  const std::string path = "/tmp/incflat_test_interleave.journal";
  JournalMeta meta;
  meta.program = "interleave";
  meta.device = "k40";
  meta.search_seed = 7;
  meta.max_trials = 64;
  meta.measure_seed = 11;

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::vector<TuneJournal> handles;
  handles.push_back(TuneJournal::open(path, meta, false, nullptr));
  for (int w = 1; w < kWriters; ++w)
    handles.push_back(TuneJournal::open(path, meta, true, nullptr));

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const uint64_t key = static_cast<uint64_t>(w) * kPerWriter +
                             static_cast<uint64_t>(i);
        // A cost whose bit pattern encodes (writer, index) so a torn or
        // cross-paired line cannot masquerade as a valid entry.
        handles[static_cast<size_t>(w)].append(
            JournalEntry::of(key, 1.0 + static_cast<double>(key) * 1e-9));
      }
    });
  }
  for (auto& t : writers) t.join();
  handles.clear();  // close every fd

  std::vector<JournalEntry> replay;
  TuneJournal resumed = TuneJournal::open(path, meta, true, &replay);
  ASSERT_EQ(replay.size(), static_cast<size_t>(kWriters * kPerWriter));
  std::vector<bool> seen(kWriters * kPerWriter, false);
  for (const JournalEntry& e : replay) {
    ASSERT_LT(e.key_hash, static_cast<uint64_t>(kWriters * kPerWriter));
    const JournalEntry want = JournalEntry::of(
        e.key_hash, 1.0 + static_cast<double>(e.key_hash) * 1e-9);
    EXPECT_EQ(e.cost_bits, want.cost_bits);  // bit-identical round trip
    EXPECT_FALSE(seen[e.key_hash]) << "entry replayed twice";
    seen[e.key_hash] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
  std::remove(path.c_str());
}

TEST(Journal, ResumeRefusesAMismatchedSearch) {
  const Benchmark b = bench_matmul();
  const Compiled fr = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const auto train = training_sets(b);
  const std::string path = "/tmp/incflat_test_mismatch.journal";

  TunerOptions topts;
  topts.noise = 0.05;
  topts.journal = path;
  autotune(dev, *fr.plan, train, topts);

  // A different search seed must refuse the resume rather than silently
  // replaying another search's measurements.
  TunerOptions other = topts;
  other.resume = true;
  other.seed = topts.seed + 1;
  EXPECT_THROW(autotune(dev, *fr.plan, train, other), IoError);
  // Resuming from a missing journal is an input error too.
  TunerOptions missing = topts;
  missing.resume = true;
  missing.journal = "/tmp/incflat_test_missing.journal";
  std::remove(missing.journal.c_str());
  EXPECT_THROW(autotune(dev, *fr.plan, train, missing), IoError);
  std::remove(path.c_str());
}

TEST(Journal, ResumeRefusesAHeaderIntegerWithTrailingBytes) {
  // The header's integers are read whole: "trials=64x" is a corrupt header,
  // not a header for 64 trials.
  const std::string path = "/tmp/incflat_test_trailing.journal";
  JournalMeta meta;
  meta.program = "matmul";
  meta.device = "k40";
  meta.max_trials = 64;
  meta.measure_k = 5;
  for (const auto& [field, bad] :
       {std::pair<std::string, std::string>{" trials=64 ", " trials=64x "},
        {" k=5 ", " k=5x "}}) {
    TuneJournal::open(path, meta, false, nullptr);
    std::string text;
    {
      std::ifstream in(path);
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, field.size(), bad);
    std::ofstream(path, std::ios::trunc) << text;
    try {
      TuneJournal::open(path, meta, true, nullptr);
      ADD_FAILURE() << "resumed a header with" << bad;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt header"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace incflat
