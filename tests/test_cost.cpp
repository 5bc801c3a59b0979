// Unit and property tests: the GPU cost model — the behaviours the paper's
// results depend on (DESIGN.md invariant 5 among them).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/exec/exec.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/cost.h"
#include "src/plan/plan.h"
#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
#include "src/support/error.h"

namespace incflat {
namespace {

using namespace ib;

Type f32s() { return Type::scalar(Scalar::F32); }

Program simple_map_program() {
  Program p;
  p.name = "axpy";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = map1(lam({ib::p("x", f32s())},
                    add(mul(var("x"), cf32(2)), cf32(1))),
                var("xs"));
  return typecheck_program(std::move(p));
}

TEST(CostModel, EvalSizeScalar) {
  const SizeEnv env{{"n", 6}, {"m", 4}};
  EXPECT_EQ(eval_size_scalar(var("n"), env), 6);
  EXPECT_EQ(eval_size_scalar(ci64(3), env), 3);
  EXPECT_EQ(eval_size_scalar(mul(var("n"), var("m")), env), 24);
  EXPECT_EQ(eval_size_scalar(sub(var("n"), ci64(1)), env), 5);
  EXPECT_THROW(eval_size_scalar(var("zz"), env), EvalError);
}

TEST(CostModel, KernelTimeIncludesLaunchOverhead) {
  const DeviceProfile dev = device_k40();
  FlattenResult fr = flatten(simple_map_program(), FlattenMode::Moderate);
  RunEstimate est = estimate_run(dev, fr.program, {{"n", 1}}, {});
  EXPECT_GE(est.time_us, dev.launch_overhead_us);
  EXPECT_EQ(est.kernel_launches, 1);
}

TEST(CostModel, ThroughputSaturatesWithParallelism) {
  // Same per-element work; more elements must never make the kernel
  // *faster per element* and utilisation gains must taper after the
  // saturation point (DESIGN invariant 5).
  const DeviceProfile dev = device_k40();
  FlattenResult fr = flatten(simple_map_program(), FlattenMode::Moderate);
  double prev_per_elem = 1e30;
  for (int64_t n : {int64_t{1} << 8, int64_t{1} << 12, int64_t{1} << 16,
                    int64_t{1} << 20, int64_t{1} << 24}) {
    RunEstimate est = estimate_run(dev, fr.program, {{"n", n}}, {});
    const double per_elem =
        (est.time_us - dev.launch_overhead_us) / static_cast<double>(n);
    EXPECT_LE(per_elem, prev_per_elem * 1.0001) << "n=" << n;
    prev_per_elem = per_elem;
  }
}

TEST(CostModel, LoopMultipliesKernelLaunches) {
  Program p;
  p.name = "steps";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.extra_sizes = {"k"};
  p.body = loop({"ys"}, {var("xs")}, "i", var("k"),
                map1(lam({ib::p("x", f32s())}, add(var("x"), cf32(1))),
                     var("ys")));
  p = typecheck_program(std::move(p));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  const DeviceProfile dev = device_k40();
  RunEstimate e1 =
      estimate_run(dev, fr.program, {{"n", 64}, {"k", 1}}, {});
  RunEstimate e8 =
      estimate_run(dev, fr.program, {{"n", 64}, {"k", 8}}, {});
  EXPECT_EQ(e8.kernel_launches, 8 * e1.kernel_launches);
  EXPECT_NEAR(e8.time_us, 8 * e1.time_us, 1e-6);
}

TEST(CostModel, LoopLaunchCountsSaturate) {
  // A host loop of k trips around one reduce (one segred, 2 launches).
  // Past 2^62 trips the launch count no longer fits in int64: the walker,
  // the plan's estimate and its launch schedule all saturate it at
  // INT64_MAX, agree on the time, and name the exact trip count in the
  // kernel's " xN" suffix.
  Program p;
  p.name = "loopred";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.extra_sizes = {"k"};
  p.body = loop({"s"}, {cf32(0)}, "i", var("k"),
                reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}));
  p = typecheck_program(std::move(p));
  const Compiled c = compile(p, FlattenMode::Incremental);
  ASSERT_NE(c.plan, nullptr);
  const DeviceProfile dev = device_k40();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const int64_t k : {int64_t{1} << 62, kMax}) {
    const SizeEnv sizes{{"n", 1024}, {"k", k}};
    const RunEstimate sim = simulate(dev, c, sizes);
    const RunEstimate walk = estimate_run(dev, c.flat.program, sizes, {});
    const std::vector<LaunchInfo> sched = plan_launch_schedule(
        *c.plan, PlanDatasetCache(*c.plan, dev, sizes), {});
    const std::string what = "segred^1 x" + std::to_string(k);
    EXPECT_EQ(sim.kernel_launches, kMax) << k;
    EXPECT_EQ(walk.kernel_launches, kMax) << k;
    EXPECT_EQ(sim.time_us, walk.time_us) << k;
    ASSERT_EQ(sim.kernels.size(), 1u) << k;
    ASSERT_EQ(walk.kernels.size(), 1u) << k;
    EXPECT_EQ(sim.kernels[0].what, what);
    EXPECT_EQ(walk.kernels[0].what, what);
    ASSERT_EQ(sched.size(), 1u) << k;
    EXPECT_EQ(sched[0].launches, kMax) << k;
    EXPECT_EQ(sched[0].time_us, sim.time_us) << k;
    EXPECT_EQ(sched[0].what, what);
  }
}

TEST(CostModel, SizeQuotientPastInt64IsAnEvalError) {
  // A host loop of m / k trips around one reduce.  INT64_MIN / -1 does not
  // fit in int64: the walker and the plan refuse it with an EvalError
  // instead of trapping, and the arena folds it between constants to an
  // Invalid node.  A division by 0 is still 0, so the loop runs no trips.
  Program p;
  p.name = "loopdiv";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.extra_sizes = {"m", "k"};
  p.body = loop({"s"}, {cf32(0)}, "i", divide(var("m"), var("k")),
                reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}));
  p = typecheck_program(std::move(p));
  const Compiled c = compile(p, FlattenMode::Incremental);
  ASSERT_NE(c.plan, nullptr);
  const DeviceProfile dev = device_k40();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const SizeEnv overflow{{"n", 1024}, {"m", kMin}, {"k", -1}};
  EXPECT_THROW(simulate(dev, c, overflow), EvalError);
  EXPECT_THROW(estimate_run(dev, c.flat.program, overflow, {}), EvalError);
  for (const int64_t k : {int64_t{0}, int64_t{3}}) {
    const SizeEnv sizes{{"n", 1024}, {"m", 7}, {"k", k}};
    const RunEstimate sim = simulate(dev, c, sizes);
    const RunEstimate walk = estimate_run(dev, c.flat.program, sizes, {});
    EXPECT_EQ(sim.kernel_launches, k == 3 ? 4 : 0) << k;
    EXPECT_EQ(sim.kernel_launches, walk.kernel_launches) << k;
    EXPECT_EQ(sim.time_us, walk.time_us) << k;
  }
  CostArena arena;
  const int quotient = arena.divi(arena.consti(kMin), arena.consti(-1));
  EXPECT_EQ(arena.nodes()[static_cast<size_t>(quotient)].op, COp::Invalid);
  const int by_zero = arena.divi(arena.consti(kMin), arena.consti(0));
  EXPECT_EQ(by_zero, arena.consti(0));
}

// matmul's version (2) is marked block_tiled; its global traffic must be
// roughly tile_size times lower than the same kernel untiled.
TEST(CostModel, BlockTilingReducesGlobalTraffic) {
  Program p;
  p.name = "mm";
  p.inputs = {
      {"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})},
      {"yss", Type::array(Scalar::F32, {Dim::v("m"), Dim::v("k")})},
  };
  Lambda dot = lam({ib::p("x", f32s()), ib::p("y", f32s())},
                   mul(var("x"), var("y")));
  p.body = map1(
      lam({ib::p("xs", Type())},
          map1(lam({ib::p("ys", Type())},
                   redomap(binlam("+", Scalar::F32), dot, {cf32(0)},
                           {var("xs"), var("ys")})),
               transpose(var("yss")))),
      var("xss"));
  p = typecheck_program(std::move(p));
  const DeviceProfile dev = device_k40();
  // Moderate flattening gives the tiled version-(2) kernel.
  FlattenResult mf = flatten(p, FlattenMode::Moderate);
  const SizeEnv sz{{"n", 256}, {"m", 256}, {"k", 256}};
  RunEstimate tiled = estimate_run(dev, mf.program, sz, {});
  ASSERT_FALSE(tiled.kernels.empty());
  EXPECT_NE(tiled.kernels[0].what.find("tiled"), std::string::npos);
  // Untiled traffic would be 2*4*n*m*k bytes; tiled must be ~tile_size x
  // less (plus the result write).
  const double untiled = 2.0 * 4 * 256.0 * 256 * 256;
  EXPECT_LT(tiled.total.gbytes, untiled / (dev.tile_size / 2.0));
}

TEST(CostModel, GuardsSelectExactlyOnePath) {
  Program p;
  p.name = "mmver";
  p.inputs = {
      {"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})},
      {"yss", Type::array(Scalar::F32, {Dim::v("m"), Dim::v("k")})},
  };
  Lambda dot = lam({ib::p("x", f32s()), ib::p("y", f32s())},
                   mul(var("x"), var("y")));
  p.body = map1(
      lam({ib::p("xs", Type())},
          map1(lam({ib::p("ys", Type())},
                   redomap(binlam("+", Scalar::F32), dot, {cf32(0)},
                           {var("xs"), var("ys")})),
               transpose(var("yss")))),
      var("xss"));
  p = typecheck_program(std::move(p));
  FlattenResult inc = flatten(p, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  // Forcing all guards false must walk the full else-chain: the guard trace
  // then contains every threshold on that path exactly once.
  ThresholdEnv off;
  off.default_threshold = int64_t{1} << 62;
  RunEstimate est =
      estimate_run(dev, inc.program, {{"n", 4}, {"m", 8}, {"k", 4}}, off);
  for (const auto& [name, taken] : est.guards) {
    EXPECT_FALSE(taken) << name;
  }
  EXPECT_EQ(est.guards.size(), inc.thresholds.size());
}

TEST(CostModel, IntraGroupFallbackWhenScratchpadExceeded) {
  // One workgroup whose intra-group intermediate exceeds local memory must
  // be priced with the global-memory fallback (Sec. 4.1).
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
  const DeviceProfile dev = device_k40();
  // Middle version with m elements per group; m*4*2 bytes of scratchpad.
  ThresholdEnv pick_middle;
  pick_middle.default_threshold = 1;
  for (const auto& ti : inc.thresholds.all()) {
    if (ti.name.find("outer") != std::string::npos) {
      pick_middle.values[ti.name] = int64_t{1} << 62;
    }
  }
  RunEstimate small = estimate_run(dev, inc.program,
                                   {{"n", 64}, {"m", 512}}, pick_middle);
  bool small_fallback = false, small_intra = false;
  for (const auto& k : small.kernels) {
    small_fallback |= k.used_local_fallback;
    small_intra |= k.what.find("intra") != std::string::npos;
  }
  EXPECT_TRUE(small_intra);
  EXPECT_FALSE(small_fallback);
  // With m = 1024 the fit guard rejects nothing (1024 == max group), but
  // pushing m beyond the scratchpad forces the fallback only if the fit
  // accepts; use a device with a huge group limit to bypass the fit.
  DeviceProfile fat = dev;
  fat.max_group_size = 1 << 22;
  RunEstimate big = estimate_run(fat, inc.program,
                                 {{"n", 4}, {"m", 1 << 20}}, pick_middle);
  bool big_fallback = false;
  for (const auto& k : big.kernels) big_fallback |= k.used_local_fallback;
  EXPECT_TRUE(big_fallback);
}

TEST(CostModel, RooflineRespectsSingleThreadFloor) {
  const DeviceProfile dev = device_k40();
  Work w;
  w.gbytes = 1e6;  // 1 MB
  const double t1 = roofline_time(dev, w, 1, 0);
  const double tful = roofline_time(dev, w, dev.saturation_threads, 0);
  // One thread streams at st_gmem_rate, not at bandwidth/saturation.
  EXPECT_NEAR(t1, 1e6 / dev.st_gmem_rate, 1);
  EXPECT_NEAR(tful, 1e6 / dev.gmem_bw, 1e-3);
  EXPECT_GT(t1, tful);
}

TEST(CostModel, DeviceProfilesMatchPaperCharacteristics) {
  const DeviceProfile k40 = device_k40();
  const DeviceProfile vega = device_vega64();
  EXPECT_EQ(k40.max_group_size, 1024);   // Sec. 5.1
  EXPECT_EQ(vega.max_group_size, 256);   // Sec. 5.1
  // "the Vega 64 is in relative terms more memory bound" (Sec. 5.2)
  EXPECT_GT(vega.compute_intensity(), k40.compute_intensity());
  // Default threshold rationale: ~2^15 threads saturate the K40 (Sec. 4.2)
  EXPECT_NEAR(static_cast<double>(k40.saturation_threads), 1 << 15, 4096);
}

}  // namespace
}  // namespace incflat
