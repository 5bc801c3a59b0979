// Unit tests: the autotuner (stochastic + exhaustive) with its dedup cache.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/flatten/flatten.h"

namespace incflat {
namespace {

TEST(Autotune, ImprovesMatmulOverDefault) {
  Benchmark b = get_benchmark("matmul");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  // The mid-range of the Fig. 2 sweep, where the default 2^15 threshold
  // picks the wrong version (the n=6..7 regime).
  std::vector<TuningDataset> train = {
      {"n6", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0},
      {"n7", {{"n", 128}, {"m", 64}, {"k", 128}}, 1.0},
  };
  TuningReport rep = autotune(dev, *inc.plan, train);
  EXPECT_LT(rep.best_cost_us, rep.default_cost_us);
}

TEST(Autotune, DeterministicUnderSeed) {
  Benchmark b = get_benchmark("matmul");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0}};
  TunerOptions opts;
  opts.seed = 7;
  TuningReport r1 = autotune(dev, *inc.plan, train, opts);
  TuningReport r2 = autotune(dev, *inc.plan, train, opts);
  EXPECT_EQ(r1.best_cost_us, r2.best_cost_us);
  EXPECT_EQ(r1.best.values, r2.best.values);
}

TEST(Autotune, DedupAvoidsRedundantEvaluations) {
  // The search space is highly repetitive (Sec. 4.2); most random
  // assignments repeat an existing path signature.
  Benchmark b = get_benchmark("matmul");
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 256}, {"k", 64}}, 1.0}};
  TunerOptions opts;
  opts.max_trials = 300;
  TuningReport rep = autotune(dev, *inc.plan, train, opts);
  EXPECT_GT(rep.dedup_hits, rep.evaluations)
      << "most assignments should repeat a known dynamic behaviour";
  EXPECT_EQ(rep.trials, 300);
}

TEST(Autotune, ExhaustiveIsAtLeastAsGoodAsStochastic) {
  for (const char* name : {"matmul", "Heston", "NW"}) {
    Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    const DeviceProfile dev = device_vega64();
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport sto = autotune(dev, *inc.plan, train);
    TuningReport exh = exhaustive_tune(dev, *inc.plan, train);
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
  const Compiled mf = compile(b.program, FlattenMode::Moderate);
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"d", {{"n", 64}, {"m", 64}, {"k", 64}}, 1.0}};
  TuningReport rep = autotune(dev, *mf.plan, train);
  EXPECT_EQ(rep.best_cost_us, rep.default_cost_us);
  EXPECT_TRUE(rep.best.values.empty());
}

TEST(Autotune, TunedOnTrainingGeneralisesToEvaluation) {
  // The Sec. 5.1 protocol: train on b.tuning, evaluate on b.datasets; the
  // tuned program must not lose to the default on the evaluation sets.
  for (const char* name : {"LocVolCalib", "Heston", "LavaMD"}) {
    Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    const DeviceProfile dev = device_k40();
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport rep = exhaustive_tune(dev, *inc.plan, train);
    for (const auto& d : b.datasets) {
      const double tuned =
          estimate_run(dev, inc.flat.program, d.sizes, rep.best).time_us;
      const double dflt =
          estimate_run(dev, inc.flat.program, d.sizes, {}).time_us;
      EXPECT_LE(tuned, dflt * 1.5) << name << "/" << d.name;
    }
  }
}

/// A search's whole result, as the pinned reports below record it.
struct PinnedReport {
  std::map<std::string, int64_t> values;
  double best_cost_us;
  double default_cost_us;
  int trials;
  int evaluations;
  int dedup_hits;
};

void expect_report(const TuningReport& rep, const PinnedReport& want,
                   const std::string& ctx) {
  EXPECT_EQ(rep.best.values, want.values) << ctx;
  EXPECT_EQ(rep.best.default_threshold, int64_t{1} << 15) << ctx;
  EXPECT_EQ(rep.best_cost_us, want.best_cost_us) << ctx;
  EXPECT_EQ(rep.default_cost_us, want.default_cost_us) << ctx;
  EXPECT_EQ(rep.trials, want.trials) << ctx;
  EXPECT_EQ(rep.evaluations, want.evaluations) << ctx;
  EXPECT_EQ(rep.dedup_hits, want.dedup_hits) << ctx;
}

TEST(Autotune, ReportsArePinned) {
  // The search trajectory, pinned bit for bit on the compiled suite
  // programs with default options (the repository benchmark's golden
  // tuning rows, plus their dedup counts).  The stochastic reports pin the
  // RNG draw order and which thresholds the incumbent sets: LavaMD's sets
  // 3 of its 4, because mutating an all-default incumbent sets only the
  // thresholds it draws.  SRAD's exhaustive scan visits 12,288 full
  // assignments.
  constexpr int64_t kOff = int64_t{1} << 62;
  struct Case {
    const char* bench;
    DeviceProfile dev;
    PinnedReport stochastic, exhaustive;
  };
  const Case cases[] = {
      {"LocVolCalib",
       device_vega64(),
       {{{"suff_intra_par_1", 1024},
         {"suff_intra_par_3", 128},
         {"suff_intra_par_5", 2048},
         {"suff_outer_par_0", 16777216},
         {"suff_outer_par_2", 2147483648},
         {"suff_outer_par_4", 262144}},
        12985.589376352618, 88733.93318435262, 400, 66, 334},
       {{{"suff_intra_par_1", 1},
         {"suff_intra_par_3", 1},
         {"suff_intra_par_5", 1},
         {"suff_outer_par_0", kOff},
         {"suff_outer_par_2", kOff},
         {"suff_outer_par_4", kOff}},
        12985.589376352618, 88733.93318435262, 15625, 146, 15481}},
      {"LavaMD",
       device_k40(),
       {{{"suff_intra_par_3", 2048},
         {"suff_outer_par_0", 131072},
         {"suff_outer_par_2", 4096}},
        98.16771428571428, 994.2382222222222, 400, 10, 390},
       {{{"suff_intra_par_1", 1},
         {"suff_intra_par_3", 1},
         {"suff_outer_par_0", kOff},
         {"suff_outer_par_2", 25600}},
        98.16771428571428, 994.2382222222222, 256, 10, 248}},
      {"SRAD",
       device_k40(),
       {{}, 138.55377, 138.55377, 400, 59, 341},
       {{}, 138.55377, 138.55377, 12288, 85, 12205}},
  };
  for (const Case& k : cases) {
    const Benchmark b = get_benchmark(k.bench);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    const std::string ctx = std::string(k.bench) + "|" + k.dev.name;
    expect_report(autotune(k.dev, *c.plan, train), k.stochastic,
                  ctx + " stochastic");
    expect_report(exhaustive_tune(k.dev, *c.plan, train), k.exhaustive,
                  ctx + " exhaustive");
  }
}

void expect_same_report(const TuningReport& got, const TuningReport& want,
                        const std::string& ctx) {
  expect_report(got,
                {want.best.values, want.best_cost_us, want.default_cost_us,
                 want.trials, want.evaluations, want.dedup_hits},
                ctx);
}

TEST(Autotune, ProgramFormForwardsToThePlanForm) {
  // The (Program, ThresholdRegistry) overloads build the program's plan and
  // tune it, so on every suite program both forms report the same search.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      const std::string ctx = name + "|" + dev.name;
      expect_same_report(
          autotune(dev, c.flat.program, c.flat.thresholds, train),
          autotune(dev, *c.plan, train), ctx + " stochastic");
      expect_same_report(
          exhaustive_tune(dev, c.flat.program, c.flat.thresholds, train),
          exhaustive_tune(dev, *c.plan, train), ctx + " exhaustive");
    }
  }
}

}  // namespace
}  // namespace incflat
