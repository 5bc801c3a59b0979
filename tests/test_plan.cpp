// Property tests for the plan layer (src/plan/): traversing a KernelPlan
// must reproduce the IR-walking cost model *bit for bit* — same code
// version selected, same RunEstimate down to the last ulp — across the whole
// benchmark suite, randomized dataset sizes and randomized threshold
// assignments, including the local-memory fallback path.  The walker is the
// reference; the plan is the only production cost path, and a program it
// cannot lower fails to build.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
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

// Every guard compares its own threshold, in registry order, so a descent
// reading slots[g] compares against the same value the walker looks up by
// name.  Named assignments resolve to slots as ThresholdEnv::get does: a
// name the plan has no guard for is ignored, and every unnamed threshold
// takes the default, including the "always off" default 2^62.
TEST(PlanLayer, GuardSlotsIndexPlanThresholds) {
  const DeviceProfile dev = device_k40();
  ThresholdEnv stray;
  stray.values["no_such_threshold"] = 1;
  ThresholdEnv off;
  off.default_threshold = int64_t{1} << 62;
  int guards = 0;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      FlattenResult fr = flatten(b.program, mode);
      const KernelPlan plan = build_kernel_plan(fr.program);
      const std::string ctx = name + "/" + mode_name(mode);
      const auto& reg = fr.thresholds.all();
      ASSERT_EQ(plan.guards.size(), reg.size()) << ctx;
      std::set<std::string> distinct;
      for (size_t i = 0; i < plan.guards.size(); ++i) {
        EXPECT_EQ(plan.guards[i].threshold, reg[i].name) << ctx;
        EXPECT_TRUE(distinct.insert(plan.guards[i].threshold).second) << ctx;
        ++guards;
      }
      const SizeEnv& sizes = b.datasets.front().sizes;
      for (const ThresholdEnv& thr : {stray, off}) {
        expect_same_estimate(plan_estimate_run(plan, dev, sizes, thr),
                             estimate_run(dev, fr.program, sizes, thr), ctx);
      }
    }
  }
  EXPECT_GT(guards, 0);
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
  for (const SizeEnv& sizes :
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
// property the autotuner relies on, paper Sec. 4.2), on every suite
// program the tuner searches.
TEST(PlanLayer, SignatureDedupIsSound) {
  Rng rng(0xdedc0de);
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const KernelPlan plan = build_kernel_plan(inc.program);
    for (const auto& dev : {device_k40(), device_vega64()}) {
      for (const auto& d : b.datasets) {
        const std::string ctx = name + "/" + dev.name + "/" + d.name;
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
            EXPECT_EQ(it->second, c) << ctx << " trial " << i;
          }
        }
        EXPECT_GT(collisions, 0) << ctx;  // the property was actually tested
      }
    }
  }
}

/// The signature as a descent of the tree computes it: a Guard sets its
/// bits and follows the arm it takes, a DataCond enters both arms, a Scale
/// its body, and kernels add nothing.
void walk_signature(const KernelPlan& plan, const PlanDatasetCache& cache,
                    std::span<const int64_t> slots, int id, PathSig& sig) {
  const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
  switch (n.kind) {
    case PlanNode::Kind::Block:
      for (const PlanNode::Step& s : n.steps) {
        if (!s.is_kernel) walk_signature(plan, cache, slots, s.index, sig);
      }
      return;
    case PlanNode::Kind::Guard: {
      const bool taken =
          cache.guard_taken(n.guard, slots[static_cast<size_t>(n.guard)]);
      sig.set(n.guard, taken);
      walk_signature(plan, cache, slots, taken ? n.then_node : n.else_node,
                     sig);
      return;
    }
    case PlanNode::Kind::DataCond:
      walk_signature(plan, cache, slots, n.then_node, sig);
      walk_signature(plan, cache, slots, n.else_node, sig);
      return;
    case PlanNode::Kind::Scale:
      walk_signature(plan, cache, slots, n.child, sig);
      return;
  }
}

/// Checks the guard-list signature against the walk under one assignment:
/// the same bits, or EvalError from both.  Returns whether the walk threw.
bool expect_signature_matches_walk(const KernelPlan& plan,
                                   const PlanDatasetCache& cache,
                                   const std::vector<int64_t>& slots,
                                   const std::string& ctx) {
  PathSig want(plan.guards.size()), got;
  bool want_threw = false, got_threw = false;
  try {
    walk_signature(plan, cache, slots, plan.root, want);
  } catch (const EvalError&) {
    want_threw = true;
  }
  try {
    plan_signature(plan, cache, slots, got);
  } catch (const EvalError&) {
    got_threw = true;
  }
  EXPECT_EQ(got_threw, want_threw) << ctx;
  if (!want_threw && !got_threw) {
    EXPECT_EQ(got.bits, want.bits) << ctx;
  }
  return want_threw;
}

/// Seeded random slot vectors for `plan`, led by all-taken and all-off.
std::vector<std::vector<int64_t>> random_slots(const KernelPlan& plan,
                                               Rng& rng, int n) {
  const size_t g = plan.guards.size();
  std::vector<std::vector<int64_t>> out{
      std::vector<int64_t>(g, 1), std::vector<int64_t>(g, int64_t{1} << 62)};
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t>& v = out.emplace_back(g);
    for (int64_t& x : v) x = int64_t{1} << rng.uniform_int(0, 31);
  }
  return out;
}

/// The deep-nest program of tests/test_deepnest.cpp: `depth` nested maps
/// over a[d0]..[d(depth-1)] with a scalar body.
Program deep_program(int depth) {
  std::function<ExprP(int, const std::string&)> nest =
      [&](int d, const std::string& arr) -> ExprP {
    if (d == 0) return add(var(arr), cf32(1));
    const std::string inner = arr + "r";
    return map1(lam({ib::p(inner, Type())}, nest(d - 1, inner)), var(arr));
  };
  Program p;
  p.name = "deep" + std::to_string(depth);
  std::vector<Dim> shape;
  for (int i = 0; i < depth; ++i) {
    shape.push_back(Dim::v("d" + std::to_string(i)));
  }
  p.inputs = {{"a", Type::array(Scalar::F32, shape)}};
  p.body = nest(depth, "a");
  return typecheck_program(std::move(p));
}

// The tuner's dedup key is one pass over the guard list.  It must reach
// exactly the guards a descent of the tree visits, with the same branches,
// and throw exactly when a reached guard's sizes are unbound: across the
// suite, the deep nests, and a data-dependent branch over guards.
TEST(PlanLayer, GuardListSignatureMatchesTheTreeWalk) {
  Rng rng(0x516e);
  int checks = 0, throws = 0;
  const auto check = [&](const KernelPlan& plan, const DeviceProfile& dev,
                         const SizeEnv& sizes, const std::string& ctx) {
    const PlanDatasetCache cache(plan, dev, sizes);
    for (const auto& slots : random_slots(plan, rng, 20)) {
      throws += expect_signature_matches_walk(plan, cache, slots, ctx);
      ++checks;
    }
  };
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      const KernelPlan plan =
          build_kernel_plan(flatten(b.program, mode).program);
      for (const auto& dev : devices) {
        for (const auto* set : {&b.datasets, &b.tuning}) {
          for (const auto& d : *set) {
            check(plan, dev, d.sizes,
                  name + "/" + mode_name(mode) + "/" + dev.name + "/" + d.name);
          }
        }
      }
    }
  }
  for (int depth = 2; depth <= 5; ++depth) {
    const KernelPlan plan = build_kernel_plan(
        flatten(deep_program(depth), FlattenMode::Incremental).program);
    SizeEnv sizes;
    for (int i = 0; i < depth; ++i) {
      sizes["d" + std::to_string(i)] = int64_t{1} << rng.uniform_int(1, 12);
    }
    for (const auto& dev : devices) {
      check(plan, dev, sizes, "deep" + std::to_string(depth) + "/" + dev.name);
    }
  }

  // if c < 0 then map (reduce (+)) xss else map (reduce max) xss: one
  // DataCond over two guard spines.  A dataset without m leaves the inner
  // guards unbound, so an assignment throws exactly when it reaches one.
  Program p;
  p.name = "data_cond_over_guards";
  p.inputs = {{"c", Type::scalar(Scalar::F32)},
              {"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  const auto map_reduce = [](const std::string& op, const std::string& xs) {
    return map1(lam({ib::p(xs, Type())},
                    reduce(binlam(op, Scalar::F32), {cf32(0)}, {var(xs)})),
                var("xss"));
  };
  p.body = iff(lt(var("c"), cf32(0)), map_reduce("+", "xs"),
               map_reduce("max", "ys"));
  const KernelPlan plan = build_kernel_plan(
      flatten(typecheck_program(std::move(p)), FlattenMode::Incremental)
          .program);
  ASSERT_EQ(plan.guards.size(), 4u);
  ASSERT_EQ(std::count_if(plan.nodes.begin(), plan.nodes.end(),
                          [](const PlanNode& n) {
                            return n.kind == PlanNode::Kind::DataCond;
                          }),
            1);
  const int before = throws;
  for (const auto& dev : devices) {
    check(plan, dev, {{"n", 1 << 10}, {"m", 1 << 8}}, "datacond/" + dev.name);
    check(plan, dev, {{"n", 1 << 10}}, "datacond/no m/" + dev.name);
  }
  EXPECT_GT(throws, before);  // the unbound dataset threw somewhere
  EXPECT_LT(throws, checks);  // ...and not everywhere
  PathSig all_taken;
  plan_signature(plan, PlanDatasetCache(plan, devices[0], {{"n", 4}}),
                 std::vector<int64_t>(4, 1), all_taken);
  EXPECT_TRUE(all_taken.reached(0) && all_taken.reached(2))
      << "both arms of the DataCond are entered";
  EXPECT_GT(checks, 5000);
}

// Both searches price candidates on the plan; the costs they report must
// equal the reference walker's cost function at the default and at the
// reported assignments.
TEST(PlanLayer, TunerCostsEqualTheReferenceCost) {
  for (const char* name : {"matmul", "LocVolCalib"}) {
    const Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const auto& dev : {device_k40(), device_vega64()}) {
      TunerOptions opts;
      opts.max_trials = 120;
      const std::string ctx = std::string(name) + "/" + dev.name;
      const ThresholdEnv defaults;  // every threshold at 2^15
      const double default_cost =
          tuning_cost(dev, inc.flat.program, train, defaults);

      const TuningReport st = autotune(dev, *inc.plan, train, opts);
      EXPECT_EQ(st.default_cost_us, default_cost) << ctx;
      EXPECT_EQ(st.best_cost_us,
                tuning_cost(dev, inc.flat.program, train, st.best))
          << ctx;

      const TuningReport ex = exhaustive_tune(dev, *inc.plan, train);
      EXPECT_EQ(ex.default_cost_us, default_cost) << ctx;
      EXPECT_EQ(ex.best_cost_us,
                tuning_cost(dev, inc.flat.program, train, ex.best))
          << ctx;
      EXPECT_LE(ex.best_cost_us, st.best_cost_us) << ctx;
    }
  }
}

// Every code version is chosen on the host: a threshold guard inside a
// kernel would split one kernel's accumulation on a tuning parameter, which
// no tree node expresses.  The build fails naming the construct, wherever
// in the kernel the guard sits, rather than hand back a plan that prices it
// wrong.
TEST(PlanLayer, UnsupportedConstructFailsTheBuild) {
  // RED = segred^0 <x in xs> (+) 0 (x), an intra-group body.
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
  const ExprP data_cond = lt(index(var("xs"), {ci64(0)}), cf32(0));
  // segmap^1 <xs in xss> BODY
  const auto outer = [](ExprP body) {
    SegOpE so;
    so.op = SegOpE::Op::Map;
    so.level = 1;
    so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
    so.body = std::move(body);
    Program p;
    p.name = "guard_in_kernel";
    p.inputs = {
        {"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
    p.body = mk(std::move(so));
    return p;
  };
  // if GUARD then THEN else ELSE over an input xss, at host level.
  const auto guarded = [&](ExprP then_e, ExprP else_e) {
    Program p;
    p.name = "rebind";
    p.inputs = {
        {"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
    p.body = iff(guard, std::move(then_e), std::move(else_e));
    return typecheck_program(std::move(p));
  };
  const std::string in_kernel = "threshold guard inside a kernel";
  const std::vector<std::tuple<std::string, Program, std::string>> cases{
      // Directly in an intra-group body.
      {"intra-group", outer(iff(guard, red(), red())), in_kernel},
      // Under a data-dependent branch of an intra-group body.
      {"intra-group data branch",
       outer(iff(data_cond, iff(guard, red(), red()), red())), in_kernel},
      // In a per-thread kernel body.
      {"per-thread", outer(iff(guard, cf32(1), cf32(2))), in_kernel},
      // A guarded arm rebinding an input at another type: later lookups
      // would depend on the branch.
      {"rebind", guarded(let1("xss", cf32(0), var("xss")), cf32(1)),
       "branch rebinds name xss"},
  };
  for (const auto& [what, p, construct] : cases) {
    try {
      build_kernel_plan(p);
      ADD_FAILURE() << what << ": expected CompilerError";
    } catch (const CompilerError& e) {
      EXPECT_NE(std::string(e.what()).find("plan-build: unsupported "
                                           "construct: " + construct),
                std::string::npos)
          << what << ": " << e.what();
    }
  }
  // The same rebind at the same type builds, and so does a name first
  // bound inside the arm, whatever types it takes there.
  for (const ExprP& then_e :
       {let1("xss", var("xss"), var("xss")),
        let1("y", cf32(0), let1("y", var("xss"), var("y")))}) {
    EXPECT_EQ(build_kernel_plan(guarded(then_e, var("xss"))).guards.size(),
              1u);
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
