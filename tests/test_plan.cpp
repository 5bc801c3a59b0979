// Property tests for the plan layer (src/plan/): traversing a KernelPlan
// must reproduce the IR-walking cost model *bit for bit* — same code
// version selected, same RunEstimate down to the last ulp — across the whole
// benchmark suite, randomized dataset sizes and randomized threshold
// assignments, including the local-memory fallback path.  The walker is the
// reference; the plan is the only production cost path, and a program it
// cannot lower fails to build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/autotune/journal.h"
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

// The flattener keeps a lambda's parameter names as its seg-space's
// parameters, so a parameter may shadow the very array it binds from.  When
// they sum a group kernel's staged rows and pick the parameters that only
// pass through to a deeper level, the walker and the plan must both resolve
// each array at its turn, from the bindings before it, in every mode and
// code version.
TEST(PlanLayer, ShadowingSpaceParamsMatchWalker) {
  Rng rng(0x5ad0);
  const auto sum = [](const std::string& xs) {
    return reduce(binlam("+", Scalar::F32), {cf32(0)}, {var(xs)});
  };
  const auto program = [](const std::string& name, std::vector<Dim> shape,
                          ExprP body) {
    Program p;
    p.name = name;
    p.inputs = {{"xs", Type::array(Scalar::F32, std::move(shape))}};
    p.body = std::move(body);
    return typecheck_program(std::move(p));
  };
  const Dim n = Dim::v("n"), k = Dim::v("k"), m = Dim::v("m");
  const std::vector<Program> programs{
      // map (\xs -> reduce (+) 0 xs) xs
      program("shadow1", {n, m}, map1(lam({ib::p("xs", Type())}, sum("xs")),
                                      var("xs"))),
      // map (\xs -> map (\ys -> reduce (+) 0 ys) xs) xs
      program("shadow2", {n, k, m},
              map1(lam({ib::p("xs", Type())},
                       map1(lam({ib::p("ys", Type())}, sum("ys")),
                            var("xs"))),
                   var("xs"))),
      // map (\xs -> let s = reduce (+) 0 xs in map (\x -> x * s) xs) xs
      program("shadow_let", {n, m},
              map1(lam({ib::p("xs", Type())},
                       let1("s", sum("xs"),
                            map1(lam({ib::p("x", Type())},
                                     mul(var("x"), var("s"))),
                                 var("xs")))),
                   var("xs"))),
  };
  ThresholdEnv on, off;
  on.default_threshold = 1;
  off.default_threshold = int64_t{1} << 62;
  int intra = 0;
  for (const Program& p : programs) {
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      FlattenResult fr = flatten(p, mode);
      const KernelPlan plan = build_kernel_plan(fr.program);
      for (const auto& dev : {device_k40(), device_vega64()}) {
        for (const SizeEnv& sizes :
             {SizeEnv{{"n", 64}, {"k", 8}, {"m", 512}},
              SizeEnv{{"n", 3}, {"k", 100}, {"m", 1 << 16}}}) {
          const ThresholdEnv drawn = random_thresholds(fr.thresholds, rng);
          for (const ThresholdEnv& thr : {on, off, ThresholdEnv{}, drawn}) {
            const std::string ctx = p.name + "/" + mode_name(mode) + "/" +
                                    dev.name + " n=" +
                                    std::to_string(sizes.at("n"));
            const RunEstimate walk = estimate_run(dev, fr.program, sizes, thr);
            expect_same_estimate(plan_estimate_run(plan, dev, sizes, thr),
                                 walk, ctx);
            PlanDatasetCache cache(plan, dev, sizes);
            EXPECT_EQ(plan_cost(plan, cache, thr), walk.time_us) << ctx;
            for (const auto& kc : walk.kernels) {
              intra += kc.what.find("{intra}") != std::string::npos;
            }
          }
        }
      }
    }
  }
  // The intra-group versions, where the walker stages rows, were priced.
  EXPECT_GT(intra, 0);
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
          cache.guard(n.guard).taken(slots[static_cast<size_t>(n.guard)]);
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

/// Checks the guard-list signatures against the walk under one assignment,
/// on every lane of `lanes` (one dataset cache each): the one-lane form on
/// each lane and the lane pass over all of them give each lane's walked
/// bits, or throw EvalError, the lane pass exactly when some lane's walk
/// throws.  Returns the number of lanes whose walk threw.
int expect_signature_matches_walk(const KernelPlan& plan,
                                  std::span<const PlanDatasetCache> lanes,
                                  const std::vector<int64_t>& slots,
                                  const std::string& ctx) {
  std::vector<PathSig> want(lanes.size(), PathSig(plan.guards.size()));
  int threw = 0;
  for (size_t d = 0; d < lanes.size(); ++d) {
    const std::string lctx = ctx + " lane " + std::to_string(d);
    bool want_threw = false, got_threw = false;
    try {
      walk_signature(plan, lanes[d], slots, plan.root, want[d]);
    } catch (const EvalError&) {
      want_threw = true;
    }
    PathSig got;
    try {
      plan_signature(plan, lanes[d], slots, got);
    } catch (const EvalError&) {
      got_threw = true;
    }
    EXPECT_EQ(got_threw, want_threw) << lctx;
    if (!want_threw && !got_threw) {
      EXPECT_EQ(got.bits, want[d].bits) << lctx;
    }
    threw += want_threw;
  }
  LaneSig sig;
  bool lanes_threw = false;
  try {
    plan_signature(plan, GuardLanes(plan, lanes), slots, sig);
  } catch (const EvalError&) {
    lanes_threw = true;
  }
  EXPECT_EQ(lanes_threw, threw > 0) << ctx;
  if (lanes_threw || threw > 0) return threw;
  EXPECT_EQ(sig.words, (lanes.size() + 63) / 64) << ctx;
  for (size_t d = 0; d < lanes.size(); ++d) {
    const size_t w = d / 64;
    for (size_t g = 0; g < plan.guards.size(); ++g) {
      const int ix = static_cast<int>(g);
      const std::string gctx = ctx + " lane " + std::to_string(d) +
                               " guard " + std::to_string(g);
      EXPECT_EQ((sig.reached[w * sig.guards + g] >> (d % 64)) & 1,
                want[d].reached(ix))
          << gctx;
      EXPECT_EQ((sig.taken[w * sig.guards + g] >> (d % 64)) & 1,
                want[d].taken(ix))
          << gctx;
    }
  }
  return threw;
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

// The tuner's dedup key is one pass over the guard list for all of its
// datasets together.  Each lane must reach exactly the guards a descent of
// the tree visits, with the same branches, and the pass must throw exactly
// when a reached guard's sizes are unbound on some lane: across the suite
// (every evaluation and tuning dataset of a plan as one set of lanes), the
// deep nests, a data-dependent branch over guards, and lane sets of more
// than one word.
TEST(PlanLayer, GuardListSignatureMatchesTheTreeWalk) {
  Rng rng(0x516e);
  int checks = 0, throws = 0;
  const auto check = [&](const KernelPlan& plan, const DeviceProfile& dev,
                         const std::vector<SizeEnv>& datasets,
                         const std::string& ctx) {
    std::vector<PlanDatasetCache> lanes;
    for (const SizeEnv& sizes : datasets) lanes.emplace_back(plan, dev, sizes);
    for (const auto& slots : random_slots(plan, rng, 60)) {
      throws += expect_signature_matches_walk(plan, lanes, slots, ctx);
      checks += static_cast<int>(lanes.size());
    }
  };
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    std::vector<SizeEnv> datasets;
    for (const auto* set : {&b.datasets, &b.tuning}) {
      for (const auto& d : *set) datasets.push_back(d.sizes);
    }
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      const KernelPlan plan =
          build_kernel_plan(flatten(b.program, mode).program);
      for (const auto& dev : devices) {
        check(plan, dev, datasets,
              name + "/" + mode_name(mode) + "/" + dev.name);
      }
    }
  }
  for (int depth = 2; depth <= 12; ++depth) {
    const KernelPlan plan = build_kernel_plan(
        flatten(deep_program(depth), FlattenMode::Incremental).program);
    // Each of the `depth` dimensions at most 2^(60 / depth), so that the
    // nest's Par, their product, stays within int64.
    const int log2_max = std::min(12, 60 / depth);
    std::vector<SizeEnv> datasets(3);
    for (SizeEnv& sizes : datasets) {
      for (int i = 0; i < depth; ++i) {
        sizes["d" + std::to_string(i)] = int64_t{1}
                                         << rng.uniform_int(1, log2_max);
      }
    }
    for (const auto& dev : devices) {
      check(plan, dev, datasets,
            "deep" + std::to_string(depth) + "/" + dev.name);
    }
  }

  // 65 and 130 lanes: scaled copies of matmul's datasets, so the lane
  // words past the first are filled and partly filled.
  {
    const Benchmark b = get_benchmark("matmul");
    std::vector<SizeEnv> base;
    for (const auto* set : {&b.datasets, &b.tuning}) {
      for (const auto& d : *set) base.push_back(d.sizes);
    }
    const KernelPlan plan = build_kernel_plan(
        flatten(b.program, FlattenMode::Incremental).program);
    for (const size_t n : {size_t{65}, size_t{130}}) {
      std::vector<SizeEnv> datasets;
      for (size_t i = 0; i < n; ++i) {
        SizeEnv sizes = base[i % base.size()];
        const int64_t up = 1 + static_cast<int64_t>(i % 5);
        const int64_t down = 1 + static_cast<int64_t>(i % 3);
        for (auto& [var, v] : sizes) v = std::max<int64_t>(1, v * up / down);
        datasets.push_back(std::move(sizes));
      }
      for (const auto& dev : devices) {
        check(plan, dev, datasets,
              "matmul x" + std::to_string(n) + "/" + dev.name);
      }
    }
  }

  // if c < 0 then map (reduce (+)) xss else map (reduce max) xss: one
  // DataCond over two guard spines.  A dataset without m leaves the inner
  // guards unbound, so an assignment throws exactly when it reaches one,
  // alone or as one lane among bound ones.
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
  const SizeEnv bound{{"n", 1 << 10}, {"m", 1 << 8}};
  const SizeEnv no_m{{"n", 1 << 10}};
  const SizeEnv bound_small{{"n", 1 << 4}, {"m", 1 << 2}};
  const int before = throws;
  for (const auto& dev : devices) {
    check(plan, dev, {bound}, "datacond/" + dev.name);
    check(plan, dev, {no_m}, "datacond/no m/" + dev.name);
    check(plan, dev, {bound, no_m, bound_small},
          "datacond/bound, no m, bound/" + dev.name);
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

/// An arena op's name, so that a rendering does not depend on COp's
/// numbering.
const char* op_name(COp op) {
  switch (op) {
    case COp::ConstF: return "constf";
    case COp::ConstI: return "consti";
    case COp::SizeVar: return "sizevar";
    case COp::DevTileF: return "devtile";
    case COp::DevMaxGroupI: return "devmaxgroup";
    case COp::DevLocalMemF: return "devlocalmem";
    case COp::AddF: return "addf";
    case COp::MulF: return "mulf";
    case COp::DivF: return "divf";
    case COp::MinF: return "minf";
    case COp::MaxF: return "maxf";
    case COp::AddI: return "addi";
    case COp::SubI: return "subi";
    case COp::MulI: return "muli";
    case COp::DivI: return "divi";
    case COp::MinI: return "mini";
    case COp::MaxI: return "maxi";
    case COp::IntToF: return "i2f";
    case COp::GeF: return "gef";
    case COp::GtF: return "gtf";
    case COp::SelF: return "self";
    case COp::SelI: return "seli";
    case COp::CeilF: return "ceilf";
    case COp::Log2F: return "log2f";
    case COp::Invalid: return "invalid";
  }
  return "?";
}

/// A plan as text, node for node: every arena node (op, operand ids and
/// payloads, a double as its bits), the size-variable table, and every
/// kernel, guard and tree node.
std::string plan_text(const KernelPlan& plan) {
  std::ostringstream os;
  os << std::hex;
  for (const CNode& n : plan.arena.nodes()) {
    os << op_name(n.op) << ' ' << n.a << ' ' << n.b << ' ' << n.c << ' '
       << std::bit_cast<uint64_t>(n.f) << ' ' << n.i << '\n';
  }
  for (const std::string& v : plan.arena.size_vars()) os << "var " << v << '\n';
  for (const KernelDesc& k : plan.kernels) {
    os << "kernel " << k.what << ' ' << k.flops << ' ' << k.gbytes << ' '
       << k.lbytes << ' ' << k.threads << ' ' << k.launches << ' '
       << k.fallback << '\n';
  }
  for (const GuardInfo& g : plan.guards) {
    os << "guard " << g.threshold << ' ' << g.par.str() << ' ' << g.fit.str()
       << ' ' << g.parent << ' ' << g.in_then << '\n';
  }
  for (const PlanNode& n : plan.nodes) {
    os << "node " << static_cast<int>(n.kind);
    for (const PlanNode::Step& s : n.steps) {
      os << (s.is_kernel ? " k" : " n") << s.index;
    }
    os << ' ' << n.guard << ' ' << n.then_node << ' ' << n.else_node << ' '
       << n.count << ' ' << n.child << '\n';
  }
  os << "root " << plan.root << '\n';
  return os.str();
}

// The builder's output, pinned node for node: one FNV-1a of plan_text per
// benchmark and mode (the default compile, as incflatc makes it) and per
// incremental deep nest.  plan_stats and the estimates pin only counts and
// values; a build that reorders, adds or drops one arena node fails here.
TEST(PlanLayer, PlansArePinnedNodeForNode) {
  struct Pin {
    const char* bench;
    uint64_t hash[3];
  };
  const Pin pins[] = {
      {"matmul",
       {0x22bc9ee0ac7ef36aULL, 0x260cf72c76546c7cULL, 0x22bf44ff54b9a0f3ULL}},
      {"LocVolCalib",
       {0x2c239a866520bd27ULL, 0xfa28c9614dc6ee2aULL, 0x2c239a866520bd27ULL}},
      {"Heston",
       {0x9101858b534a8824ULL, 0x66f88253c645393aULL, 0x491984fc3d25a76bULL}},
      {"OptionPricing",
       {0x1617b5417d619773ULL, 0xe38e98f7cc334ed0ULL, 0x7b962f9df0739cf7ULL}},
      {"Backprop",
       {0x366cb3b7e8a6ee45ULL, 0x304ef606ec1c27a9ULL, 0xa0a85ace9c02b074ULL}},
      {"LavaMD",
       {0x6a6ce0e0b51300f0ULL, 0x80f43f57dcae824cULL, 0xf91556e49c89cab9ULL}},
      {"NW",
       {0xbae099830d44daf1ULL, 0x6f1de58bc153687aULL, 0xbae099830d44daf1ULL}},
      {"NN",
       {0x672b7abb55aa2955ULL, 0x474c8852757672deULL, 0x01a644983366407dULL}},
      {"SRAD",
       {0xeced579cf66615d1ULL, 0x7841102d40dcb351ULL, 0x2ff589e496736ee5ULL}},
      {"Pathfinder",
       {0x12ec70d8b7157c67ULL, 0xf468076e21e82c8eULL, 0x12ec70d8b7157c67ULL}},
  };
  const FlattenMode modes[] = {FlattenMode::Moderate, FlattenMode::Incremental,
                               FlattenMode::Full};
  for (const Pin& pin : pins) {
    const Benchmark b = get_benchmark(pin.bench);
    for (size_t m = 0; m < 3; ++m) {
      CompileOptions o;
      o.flatten.fuse = modes[m] != FlattenMode::Moderate || b.fuse_moderate;
      const Compiled c = compile(b.program, modes[m], o);
      ASSERT_NE(c.plan, nullptr);
      const std::string text = plan_text(*c.plan);
      const uint64_t got = journal_hash(text.data(), text.size());
      EXPECT_EQ(got, pin.hash[m]) << pin.bench << " / " << mode_name(modes[m])
                                  << ": 0x" << std::hex << got;
    }
  }
  const uint64_t deep[] = {  // depth 2..12
      0xb469068eedaa199eULL, 0xc5f73e6d5cba0b1cULL, 0x9f5e27ca2c3d0c9cULL,
      0xa29864478a700303ULL, 0xdf51cc079c157b03ULL, 0x1e6072d4bbdb45dcULL,
      0x436402d351172201ULL, 0xeb7ea3606410cd8aULL, 0x58b81d51cf253558ULL,
      0x475556dad66b549dULL, 0x858cb330aa1ef0bfULL,
  };
  for (int depth = 2; depth <= 12; ++depth) {
    const std::string text = plan_text(build_kernel_plan(
        flatten(deep_program(depth), FlattenMode::Incremental).program));
    const uint64_t got = journal_hash(text.data(), text.size());
    EXPECT_EQ(got, deep[depth - 2])
        << "deep" << depth << ": 0x" << std::hex << got;
  }
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
      // A data-dependent intra-group branch whose sides leave different
      // scratchpad-resident names.
      {"intra-group branch names",
       typecheck_program(
           outer(iff(data_cond, let1("t", red(), var("t")), red()))),
       "data-dependent intra-group branches bind different "
       "scratchpad-resident names"},
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
  // Sides that leave the same names build, and price as the walker does.
  const Program same = typecheck_program(outer(iff(
      data_cond, let1("t", red(), var("t")), let1("t", red(), var("t")))));
  const SizeEnv sizes{{"n", 64}, {"m", 32}};
  expect_same_estimate(
      plan_estimate_run(build_kernel_plan(same), device_k40(), sizes, {}),
      estimate_run(device_k40(), same, sizes, {}), "same names");
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
