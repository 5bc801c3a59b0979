// Property tests for the plan layer (src/plan/): traversing a KernelPlan
// must reproduce the IR-walking cost model *bit for bit* — same code
// version selected, same RunEstimate down to the last ulp — across the whole
// benchmark suite, randomized dataset sizes and randomized threshold
// assignments, including the local-memory fallback path.  The walker is the
// reference; the plan is the only production cost path, and a program it
// cannot lower fails to build.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/flatten/flatten.h"
#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
#include "src/plan/plan.h"
#include "src/support/error.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

using namespace ib;

void expect_same_estimate(const RunEstimate& plan, const RunEstimate& walk,
                          const std::string& ctx) {
  EXPECT_EQ(plan.time_us, walk.time_us) << ctx;
  EXPECT_EQ(plan.kernel_launches, walk.kernel_launches) << ctx;
  EXPECT_EQ(plan.total.flops, walk.total.flops) << ctx;
  EXPECT_EQ(plan.total.gbytes, walk.total.gbytes) << ctx;
  EXPECT_EQ(plan.total.lbytes, walk.total.lbytes) << ctx;
  ASSERT_EQ(plan.kernels.size(), walk.kernels.size()) << ctx;
  for (size_t i = 0; i < plan.kernels.size(); ++i) {
    const std::string kctx = ctx + " kernel #" + std::to_string(i);
    EXPECT_EQ(plan.kernels[i].what, walk.kernels[i].what) << kctx;
    EXPECT_EQ(plan.kernels[i].time_us, walk.kernels[i].time_us) << kctx;
    EXPECT_EQ(plan.kernels[i].threads, walk.kernels[i].threads) << kctx;
    EXPECT_EQ(plan.kernels[i].work.flops, walk.kernels[i].work.flops) << kctx;
    EXPECT_EQ(plan.kernels[i].work.gbytes, walk.kernels[i].work.gbytes)
        << kctx;
    EXPECT_EQ(plan.kernels[i].work.lbytes, walk.kernels[i].work.lbytes)
        << kctx;
    EXPECT_EQ(plan.kernels[i].used_local_fallback,
              walk.kernels[i].used_local_fallback)
        << kctx;
  }
  ASSERT_EQ(plan.guards.size(), walk.guards.size()) << ctx;
  for (size_t i = 0; i < plan.guards.size(); ++i) {
    EXPECT_EQ(plan.guards[i].first, walk.guards[i].first) << ctx;
    EXPECT_EQ(plan.guards[i].second, walk.guards[i].second) << ctx;
  }
}

/// Randomized threshold assignment over the registry's parameter names.
ThresholdEnv random_thresholds(const ThresholdRegistry& reg, Rng& rng) {
  ThresholdEnv env;
  for (const auto& ti : reg.all()) {
    if (rng.flip(0.3)) continue;  // leave some at the default
    env.values[ti.name] = int64_t{1} << rng.uniform_int(0, 24);
  }
  if (rng.flip(0.25)) env.default_threshold = int64_t{1} << 62;
  return env;
}

/// Perturb every size in the dataset by a random factor, keeping it >= 1.
SizeEnv perturb(const SizeEnv& sizes, Rng& rng) {
  SizeEnv out;
  for (const auto& [name, v] : sizes) {
    const int64_t factors[] = {1, 2, 3, 4, 8};
    int64_t nv = v * factors[rng.uniform_int(0, 4)];
    if (rng.flip(0.3)) nv = std::max<int64_t>(1, v / 2);
    out[name] = nv;
  }
  return out;
}

// The whole benchmark suite x all three flattening modes x randomized sizes
// and thresholds: plan estimates equal walker estimates exactly.
TEST(PlanLayer, MatchesWalkerAcrossSuite) {
  Rng rng(0x9a7e11);
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};
  int fallbacks = 0, programs = 0;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      FlattenResult fr = flatten(b.program, mode);
      const KernelPlan plan = build_kernel_plan(fr.program);
      ++programs;
      if (plan.legacy_fallback) ++fallbacks;
      for (const auto& dev : devices) {
        for (const auto& d : b.datasets) {
          for (int round = 0; round < 3; ++round) {
            const SizeEnv sizes =
                round == 0 ? d.sizes : perturb(d.sizes, rng);
            const ThresholdEnv thr = random_thresholds(fr.thresholds, rng);
            const std::string ctx = name + "/" + mode_name(mode) + "/" +
                                    dev.name + "/" + d.name + " round " +
                                    std::to_string(round);
            const RunEstimate walk =
                estimate_run(dev, fr.program, sizes, thr);
            const RunEstimate via_plan =
                plan_estimate_run(plan, dev, sizes, thr);
            expect_same_estimate(via_plan, walk, ctx);

            // The tuner's scalar fast path agrees too.
            PlanDatasetCache cache(plan, dev, sizes);
            EXPECT_EQ(plan_cost(plan, cache, thr), walk.time_us) << ctx;
          }
        }
      }
    }
  }
  // The plan builder must cover the suite: fallbacks are allowed by the API
  // but would mean the tuner silently loses its fast path.
  EXPECT_EQ(fallbacks, 0) << "of " << programs << " programs";
}

// The local-memory fallback (paper Sec. 4.1): an intra-group kernel whose
// scratchpad need exceeds the device limit is repriced against global
// memory.  The plan bakes the spill condition into select nodes; the choice
// must match the walker on both sides of the boundary.
TEST(PlanLayer, LocalMemoryFallbackMatchesWalker) {
  Program p;
  p.name = "big_intra";
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  p.body = map1(
      lam({ib::p("xs", Type())},
          let1("ss",
               scan(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}),
               scan(binlam("+", Scalar::F32), {cf32(0)}, {var("ss")}))),
      var("xss"));
  p = typecheck_program(std::move(p));
  FlattenResult inc = flatten(p, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  ASSERT_FALSE(plan.legacy_fallback);

  ThresholdEnv pick_middle;
  pick_middle.default_threshold = 1;
  for (const auto& ti : inc.thresholds.all()) {
    if (ti.name.find("outer") != std::string::npos) {
      pick_middle.values[ti.name] = int64_t{1} << 62;
    }
  }
  DeviceProfile fat = device_k40();
  fat.max_group_size = 1 << 22;
  for (const SizeEnv sizes :
       {SizeEnv{{"n", 64}, {"m", 512}}, SizeEnv{{"n", 4}, {"m", 1 << 20}}}) {
    const RunEstimate walk = estimate_run(fat, inc.program, sizes, pick_middle);
    const RunEstimate via_plan =
        plan_estimate_run(plan, fat, sizes, pick_middle);
    expect_same_estimate(via_plan, walk, "big_intra m=" +
                         std::to_string(sizes.at("m")));
  }
  // Sanity: the two datasets really are on opposite sides of the spill.
  const RunEstimate small =
      plan_estimate_run(plan, fat, {{"n", 64}, {"m", 512}}, pick_middle);
  const RunEstimate big =
      plan_estimate_run(plan, fat, {{"n", 4}, {"m", 1 << 20}}, pick_middle);
  bool small_fb = false, big_fb = false;
  for (const auto& k : small.kernels) small_fb |= k.used_local_fallback;
  for (const auto& k : big.kernels) big_fb |= k.used_local_fallback;
  EXPECT_FALSE(small_fb);
  EXPECT_TRUE(big_fb);
}

// Equal guard-path signatures must imply equal cost (the dedup soundness
// property the autotuner relies on, paper Sec. 4.2).
TEST(PlanLayer, SignatureDedupIsSound) {
  const Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  ASSERT_FALSE(plan.legacy_fallback);
  const DeviceProfile dev = device_k40();
  Rng rng(0xdedc0de);
  for (const auto& d : b.datasets) {
    PlanDatasetCache cache(plan, dev, d.sizes);
    std::map<std::vector<uint64_t>, double> seen;
    int collisions = 0;
    for (int i = 0; i < 200; ++i) {
      const ThresholdEnv thr = random_thresholds(inc.thresholds, rng);
      const PathSig sig = plan_signature(plan, cache, thr);
      const double c = plan_cost(plan, cache, thr);
      auto [it, fresh] = seen.emplace(sig.bits, c);
      if (!fresh) {
        ++collisions;
        EXPECT_EQ(it->second, c) << d.name << " trial " << i;
      }
    }
    EXPECT_GT(collisions, 0) << d.name;  // the property was actually tested
  }
}

// Both searches price candidates on the plan; the costs they report must
// equal the reference walker's cost function at the default and at the
// reported assignments.
TEST(PlanLayer, TunerCostsEqualTheReferenceCost) {
  for (const char* name : {"matmul", "LocVolCalib"}) {
    const Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const auto& dev : {device_k40(), device_vega64()}) {
      TunerOptions opts;
      opts.max_trials = 120;
      const std::string ctx = std::string(name) + "/" + dev.name;
      const ThresholdEnv defaults;  // every threshold at 2^15
      const double default_cost =
          tuning_cost(dev, inc.program, train, defaults);

      const TuningReport st =
          autotune(dev, inc.program, inc.thresholds, train, opts);
      EXPECT_EQ(st.default_cost_us, default_cost) << ctx;
      EXPECT_EQ(st.best_cost_us,
                tuning_cost(dev, inc.program, train, st.best))
          << ctx;

      const TuningReport ex =
          exhaustive_tune(dev, inc.program, inc.thresholds, train);
      EXPECT_EQ(ex.default_cost_us, default_cost) << ctx;
      EXPECT_EQ(ex.best_cost_us,
                tuning_cost(dev, inc.program, train, ex.best))
          << ctx;
      EXPECT_LE(ex.best_cost_us, st.best_cost_us) << ctx;
    }
  }
}

// A threshold guard inside a data-dependent branch of an intra-group body
// has no decision-tree form: the guard would split one kernel's
// accumulation on a value known only at run time.  The build must fail
// naming the construct rather than hand back a plan that prices it wrong.
TEST(PlanLayer, UnsupportedConstructFailsTheBuild) {
  // segmap^1 <xs in xss>
  //   if xs[0] < 0 then (if m >= suff_intra_par_0 then RED else RED)
  //   else RED
  // where RED = segred^0 <x in xs> (+) 0 (x), an intra-group body.
  const auto red = [] {
    SegOpE so;
    so.op = SegOpE::Op::Red;
    so.level = 0;
    so.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
    so.combine = binlam("+", Scalar::F32);
    so.neutral = {cf32(0)};
    so.body = var("x");
    return mk(std::move(so));
  };
  const ExprP guard =
      mk(ThresholdCmpE{"suff_intra_par_0", SizeExpr::of(Dim::v("m")),
                       SizeExpr::of(Dim::v("m"))});
  SegOpE outer;
  outer.op = SegOpE::Op::Map;
  outer.level = 1;
  outer.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  outer.body = iff(lt(index(var("xs"), {ci64(0)}), cf32(0)),
                   iff(guard, red(), red()), red());
  Program p;
  p.name = "guard_under_data_branch";
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  p.body = mk(std::move(outer));
  try {
    build_kernel_plan(p);
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "threshold guard inside a data-dependent intra-group branch"),
              std::string::npos)
        << e.what();
  }
}

// A plan is built once and reused: mutating nothing between evaluations,
// repeated traversals of the same cache are stable.
TEST(PlanLayer, RepeatedTraversalIsPure) {
  const Benchmark b = get_benchmark("LocVolCalib");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  ASSERT_FALSE(plan.legacy_fallback);
  const DeviceProfile dev = device_vega64();
  PlanDatasetCache cache(plan, dev, b.datasets[0].sizes);
  const ThresholdEnv thr;
  const double first = plan_cost(plan, cache, thr);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plan_cost(plan, cache, thr), first);
  }
}

}  // namespace
}  // namespace incflat
