// Regression tests pinning the qualitative figure shapes (the reproduction
// contract): these are the same claims the bench binaries print, kept here
// so `ctest` guards them against cost-model or compiler regressions.
#include <gtest/gtest.h>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/benchsuite/reference.h"
#include "src/exec/exec.h"
#include "src/flatten/flatten.h"

namespace incflat {
namespace {

std::vector<TuningDataset> training_of(const Benchmark& b) {
  std::vector<TuningDataset> out;
  for (const auto& d : b.tuning) out.push_back({d.name, d.sizes, 1.0});
  return out;
}

// ---------------------------------------------------------------- Fig. 2

TEST(Fig2, TunedMatmulGetsBestOfBothWorlds) {
  Benchmark b = get_benchmark("matmul");
  FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();

  std::vector<TuningDataset> train;
  for (int n = 0; n <= 10; ++n) {
    const int m = 20 - 2 * n;
    if (m < 0) break;
    train.push_back({"n" + std::to_string(n),
                     {{"n", int64_t{1} << n},
                      {"m", int64_t{1} << m},
                      {"k", int64_t{1} << n}},
                     1.0});
  }
  TuningReport rep = exhaustive_tune(dev, *inc.plan, train);

  for (const auto& d : train) {
    const double mf_t = estimate_run(dev, mf.program, d.sizes, {}).time_us;
    const double un_t =
        estimate_run(dev, inc.flat.program, d.sizes, {}).time_us;
    const double aif_t =
        estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
    // The tuned program is near the best of all compiler versions at
    // every point on the sweep.
    EXPECT_LE(aif_t, 1.25 * std::min(mf_t, un_t)) << d.name;
  }
  // Moderate flattening is catastrophically bad at n=0 (Fig. 2's left).
  const double mf0 = estimate_run(dev, mf.program, train[0].sizes, {}).time_us;
  const double aif0 =
      estimate_run(dev, inc.flat.program, train[0].sizes, rep.best).time_us;
  EXPECT_GT(mf0 / aif0, 10.0);
}

TEST(Fig2, CuBlasLosesOnDegenerateWinsOnLargeK25) {
  Benchmark b = get_benchmark("matmul");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train;
  for (int n = 0; n <= 10; ++n) {
    const int m = 20 - 2 * n;
    if (m < 0) break;
    train.push_back({"d",
                     {{"n", int64_t{1} << n},
                      {"m", int64_t{1} << m},
                      {"k", int64_t{1} << n}},
                     1.0});
  }
  TuningReport rep = exhaustive_tune(dev, *inc.plan, train);
  // degenerate n=0 (k=20): library GEMM loses
  {
    const SizeEnv sz{{"n", 1}, {"m", 1 << 20}, {"k", 1}};
    const double aif =
        estimate_run(dev, inc.flat.program, sz, rep.best).time_us;
    EXPECT_GT(reference_gemm(dev, 1, 1 << 20, 1), aif);
  }
  // n=10 (k=25): library GEMM wins by its richer tiling
  {
    const SizeEnv sz{{"n", 1 << 10}, {"m", 1 << 5}, {"k", 1 << 10}};
    const double aif =
        estimate_run(dev, inc.flat.program, sz, rep.best).time_us;
    EXPECT_LT(reference_gemm(dev, 1 << 10, 1 << 5, 1 << 10), aif);
  }
}

// ---------------------------------------------------------------- Fig. 7

TEST(Fig7, LocVolCalibVersionSelectionMatchesPaper) {
  Benchmark b = get_benchmark("LocVolCalib");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);

  auto count_intra = [&](const DeviceProfile& dev, const SizeEnv& sizes,
                         const ThresholdEnv& env) {
    RunEstimate est = estimate_run(dev, inc.flat.program, sizes, env);
    int n = 0;
    for (const auto& k : est.kernels) {
      if (k.what.find("intra") != std::string::npos) ++n;
    }
    return n;
  };

  // K40, large dataset: the tuned program uses version 1 — outer
  // parallelism with a sequential tridag, no intra-group kernels.
  {
    const DeviceProfile dev = device_k40();
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    EXPECT_EQ(count_intra(dev, b.datasets[2].sizes, rep.best), 0);
  }
  // Vega 64: version 2 — the scans run at workgroup level — on all
  // datasets (Sec. 5.2: "AIF choses version 2 on Vega 64").
  {
    const DeviceProfile dev = device_vega64();
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    for (const auto& d : b.datasets) {
      EXPECT_GT(count_intra(dev, d.sizes, rep.best), 0) << d.name;
    }
  }
}

TEST(Fig7, AifBeatsModerateOnEveryDataset) {
  Benchmark b = get_benchmark("LocVolCalib");
  FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    for (const auto& d : b.datasets) {
      const double mft = estimate_run(dev, mf.program, d.sizes, {}).time_us;
      const double aif =
          estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
      EXPECT_LT(aif, 1.02 * mft) << dev.name << "/" << d.name;
    }
  }
}

// ---------------------------------------------------------------- Fig. 8

TEST(Fig8, AifNeverLosesToModerateAnywhere) {
  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    for (const auto& base : bulk_benchmarks()) {
      FlattenOptions mo;
      mo.fuse = base.fuse_moderate;
      FlattenResult mf = flatten(base.program, FlattenMode::Moderate, mo);
      const Compiled inc = compile(base.program, FlattenMode::Incremental);
      TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(base));
      for (const auto& d : base.datasets) {
        const double mft = estimate_run(dev, mf.program, d.sizes, {}).time_us;
        const double aif =
            estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
        EXPECT_LE(aif, 1.05 * mft) << dev.name << "/" << base.name << "/"
                                   << d.name;
      }
    }
  }
}

TEST(Fig8, ReferencesLoseWhereThePaperSaysTheyLose) {
  const DeviceProfile dev = device_k40();
  // OptionPricing D2: the outer-only reference slows down.
  {
    Benchmark b = get_benchmark("OptionPricing");
    FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
    const double mft =
        estimate_run(dev, mf.program, b.datasets[1].sizes, {}).time_us;
    EXPECT_GT(b.reference(dev, b.datasets[1].sizes), mft);
  }
  // NN D1 and Backprop D2: the CPU-side reduction sinks Rodinia.
  for (const char* name : {"NN", "Backprop"}) {
    Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    const auto& d = b.datasets[name == std::string("NN") ? 0 : 1];
    const double aif =
        estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
    EXPECT_GT(b.reference(dev, d.sizes), aif) << name;
  }
  // NW D1: Rodinia's in-place diagonal schedule wins.
  {
    Benchmark b = get_benchmark("NW");
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    const double aif = estimate_run(dev, inc.flat.program,
                                    b.datasets[0].sizes, rep.best)
                           .time_us;
    EXPECT_LT(b.reference(dev, b.datasets[0].sizes), aif);
  }
}

TEST(Fig8, HestonNeedsAllThreeLayers) {
  // MF exploits only the outer map (sequentialised redomaps) and is far
  // from AIF on both datasets (Sec. 5.3).
  Benchmark b = get_benchmark("Heston");
  FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    TuningReport rep = exhaustive_tune(dev, *inc.plan, training_of(b));
    for (const auto& d : b.datasets) {
      const double mft = estimate_run(dev, mf.program, d.sizes, {}).time_us;
      const double aif =
          estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
      EXPECT_GT(mft / aif, 2.0) << dev.name << "/" << d.name;
    }
  }
}

}  // namespace
}  // namespace incflat
