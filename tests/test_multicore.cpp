// The paper's closing remark made concrete: the flattening rules and the
// tuning machinery are hardware-agnostic, so retargeting only means
// swapping the device profile.  On a SIMD-multicore profile, saturation is
// reached at ~512 threads instead of ~2^15, and the tuner's version
// selection shifts accordingly — with zero compiler changes.
#include <gtest/gtest.h>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/flatten/flatten.h"

namespace incflat {
namespace {

TEST(Multicore, ProfileIsSaturatedByFarFewerThreads) {
  const DeviceProfile mc = device_multicore();
  EXPECT_LT(mc.saturation_threads, device_k40().saturation_threads / 32);
  EXPECT_LT(mc.max_group_size, 64);  // SIMD width, not a workgroup
}

TEST(Multicore, CostModelRunsUnchanged) {
  Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const DeviceProfile mc = device_multicore();
  for (const auto& d : b.datasets) {
    RunEstimate est = estimate_run(mc, inc.program, d.sizes, {});
    EXPECT_GT(est.time_us, 0) << d.name;
  }
}

TEST(Multicore, OuterParallelismSufficesMuchEarlier) {
  // On the GPU, a 256-row matmul cannot saturate with outer parallelism
  // alone; on the multicore it can.  The tuned programs must diverge:
  // the multicore picks an outer (or version-2) mapping for shapes where
  // the K40 still needs the fully flattened version.
  Benchmark b = get_benchmark("matmul");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  std::vector<TuningDataset> train = {
      {"mid", {{"n", 32}, {"m", 1024}, {"k", 32}}, 1.0},
  };
  const DeviceProfile k40 = device_k40();
  const DeviceProfile mc = device_multicore();
  TuningReport rk = exhaustive_tune(k40, *inc.plan, train);
  TuningReport rm = exhaustive_tune(mc, *inc.plan, train);
  // 32*32 = 1024 threads: double the multicore's saturation point, a
  // thirtieth of the K40's.
  RunEstimate ek =
      estimate_run(k40, inc.flat.program, train[0].sizes, rk.best);
  RunEstimate em = estimate_run(mc, inc.flat.program, train[0].sizes, rm.best);
  // A "suff_outer_par" guard firing means the tuned program declared the
  // outer parallelism sufficient and sequentialised the rest.
  auto outer_sequentialised = [](const RunEstimate& e) {
    for (const auto& [name, taken] : e.guards) {
      if (taken && name.find("outer") != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(outer_sequentialised(em))
      << "multicore should settle for outer parallelism at 1024 threads";
  EXPECT_FALSE(outer_sequentialised(ek))
      << "K40 should keep exploiting inner parallelism at this size";
}

TEST(Multicore, TuningImprovesOrMatchesDefaultEverywhere) {
  const DeviceProfile mc = device_multicore();
  for (const auto& name : all_benchmark_names()) {
    Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport rep = exhaustive_tune(mc, *inc.plan, train);
    EXPECT_LE(rep.best_cost_us, rep.default_cost_us * 1.0001) << name;
  }
}

}  // namespace
}  // namespace incflat
