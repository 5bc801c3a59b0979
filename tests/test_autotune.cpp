// Unit tests: the threshold registry and the autotuner (stochastic +
// exhaustive) with its dedup cache.
#include <gtest/gtest.h>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/flatten/flatten.h"

namespace incflat {
namespace {

TEST(ThresholdRegistry, FreshNamesAreUniqueAndOrdered) {
  ThresholdRegistry reg;
  const std::string a = reg.fresh("suff_outer_par", SizeExpr::one(),
                                  SizeExpr{}, {});
  const std::string b = reg.fresh("suff_outer_par", SizeExpr::one(),
                                  SizeExpr{}, {{a, false}});
  EXPECT_NE(a, b);
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.all()[0].name, a);
  EXPECT_EQ(reg.info(b).path.size(), 1u);
}

TEST(ThresholdRegistry, TruncateRollsBack) {
  ThresholdRegistry reg;
  reg.fresh("a", SizeExpr::one(), SizeExpr{}, {});
  const size_t mark = reg.size();
  reg.fresh("b", SizeExpr::one(), SizeExpr{}, {});
  reg.truncate(mark);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Autotune, ImprovesMatmulOverDefault) {
  Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  // The mid-range of the Fig. 2 sweep, where the default 2^15 threshold
  // picks the wrong version (the n=6..7 regime).
  std::vector<TuningDataset> train = {
      {"n6", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0},
      {"n7", {{"n", 128}, {"m", 64}, {"k", 128}}, 1.0},
  };
  TuningReport rep = autotune(dev, inc.program, inc.thresholds, train);
  EXPECT_LT(rep.best_cost_us, rep.default_cost_us);
}

TEST(Autotune, DeterministicUnderSeed) {
  Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0}};
  TunerOptions opts;
  opts.seed = 7;
  TuningReport r1 = autotune(dev, inc.program, inc.thresholds, train, opts);
  TuningReport r2 = autotune(dev, inc.program, inc.thresholds, train, opts);
  EXPECT_EQ(r1.best_cost_us, r2.best_cost_us);
  EXPECT_EQ(r1.best.values, r2.best.values);
}

TEST(Autotune, DedupAvoidsRedundantEvaluations) {
  // The search space is highly repetitive (Sec. 4.2); most random
  // assignments repeat an existing path signature.
  Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0}};
  TunerOptions opts;
  opts.max_trials = 300;
  TuningReport rep = autotune(dev, inc.program, inc.thresholds, train, opts);
  EXPECT_GT(rep.dedup_hits, rep.evaluations)
      << "most assignments should repeat a known dynamic behaviour";
  EXPECT_EQ(rep.trials, 300);
}

TEST(Autotune, ExhaustiveIsAtLeastAsGoodAsStochastic) {
  for (const char* name : {"matmul", "Heston", "NW"}) {
    Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const DeviceProfile dev = device_vega64();
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport sto = autotune(dev, inc.program, inc.thresholds, train);
    TuningReport exh = exhaustive_tune(dev, inc.program, inc.thresholds,
                                       train);
    EXPECT_LE(exh.best_cost_us, sto.best_cost_us * 1.0001) << name;
  }
}

TEST(Autotune, WeightsBiasTheCostFunction) {
  // A weighted sum "permits the user to indicate which workloads are the
  // most important" (Sec. 4.2).
  Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  TuningDataset skinny{"skinny", {{"n", 2}, {"m", 1 << 16}, {"k", 2}}, 1.0};
  TuningDataset square{"square", {{"n", 512}, {"m", 512}, {"k", 512}}, 1.0};
  ThresholdEnv env;
  const double unweighted =
      tuning_cost(dev, inc.program, {skinny, square}, env);
  skinny.weight = 3.0;
  const double weighted =
      tuning_cost(dev, inc.program, {skinny, square}, env);
  const double skinny_only =
      tuning_cost(dev, inc.program, {skinny}, env) / 3.0;
  EXPECT_NEAR(weighted - unweighted, 2.0 * skinny_only, 1e-6);
}

TEST(Autotune, NoThresholdsIsANoOp) {
  Benchmark b = get_benchmark("matmul");
  FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 64}, {"k", 64}}, 1.0}};
  TuningReport rep = autotune(dev, mf.program, mf.thresholds, train);
  EXPECT_EQ(rep.best_cost_us, rep.default_cost_us);
  EXPECT_TRUE(rep.best.values.empty());
}

TEST(Autotune, TunedOnTrainingGeneralisesToEvaluation) {
  // The Sec. 5.1 protocol: train on b.tuning, evaluate on b.datasets; the
  // tuned program must not lose to the default on the evaluation sets.
  for (const char* name : {"LocVolCalib", "Heston", "LavaMD"}) {
    Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const DeviceProfile dev = device_k40();
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport rep = exhaustive_tune(dev, inc.program, inc.thresholds,
                                       train);
    for (const auto& d : b.datasets) {
      const double tuned =
          estimate_run(dev, inc.program, d.sizes, rep.best).time_us;
      const double dflt = estimate_run(dev, inc.program, d.sizes, {}).time_us;
      EXPECT_LE(tuned, dflt * 1.5) << name << "/" << d.name;
    }
  }
}

}  // namespace
}  // namespace incflat
