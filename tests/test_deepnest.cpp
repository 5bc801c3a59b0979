// Torture tests: deeply nested parallelism.  The paper notes that the
// number of generated code versions is exponential in the depth of the
// parallel nest but statically bounded by the program's shape; these tests
// pin the version counts for 3- and 4-deep nests and validate semantics
// across the whole guard space.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "src/exec/exec.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/cost.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"
#include "src/support/error.h"
#include "src/support/rng.h"
#include "tests/traverse_oracle.h"

namespace incflat {
namespace {

using namespace ib;

Type f32s() { return Type::scalar(Scalar::F32); }

/// depth-d nest of maps with a scalar body at the bottom.
ExprP nest_maps(int depth, const std::string& arr) {
  if (depth == 0) return add(var(arr), cf32(1));
  const std::string inner = arr + "r";
  return map1(lam({ib::p(inner, Type())}, nest_maps(depth - 1, inner)),
              var(arr));
}

Program deep_program(int depth) {
  Program p;
  p.name = "deep" + std::to_string(depth);
  std::vector<Dim> shape;
  for (int i = 0; i < depth; ++i) {
    shape.push_back(Dim::v("d" + std::to_string(i)));
  }
  p.inputs = {{"a", Type::array(Scalar::F32, shape)}};
  // nest_maps(depth) consumes one dimension per level; the innermost is a
  // scalar body.
  p.body = map1(lam({ib::p("ar", Type())}, nest_maps(depth - 1, "ar")),
                var("a"));
  return typecheck_program(std::move(p));
}

TEST(DeepNest, ThresholdCountGrowsWithDepth) {
  FlattenResult d2 = flatten(deep_program(2), FlattenMode::Incremental);
  FlattenResult d3 = flatten(deep_program(3), FlattenMode::Incremental);
  FlattenResult d4 = flatten(deep_program(4), FlattenMode::Incremental);
  EXPECT_EQ(d2.thresholds.size(), 2u);
  EXPECT_GT(d3.thresholds.size(), d2.thresholds.size());
  EXPECT_GT(d4.thresholds.size(), d3.thresholds.size());
  // The expansion is exponential in depth but statically bounded — the
  // 4-deep nest stays well under a hundred versions (paper: "manageable").
  EXPECT_LT(count_segops(d4.program.body), 100);
}

TEST(DeepNest, QueriesMatchReferenceWalks) {
  // Node facts and free variables against the reference walks on every
  // node of deep_program(2..12), before and after every pass, in all
  // three modes; and prune-segbinds against the set-based pass.
  for (int depth = 2; depth <= 12; ++depth) {
    const Program p = deep_program(depth);
    EXPECT_EQ(oracle::first_mismatch(p.body), "") << depth;
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      CompileOptions o;
      ExprP input = p.body;
      o.after_pass = [&](const std::string& pass, const Program& prog) {
        EXPECT_EQ(oracle::first_mismatch(prog.body), "")
            << "depth " << depth << " / " << mode_name(mode) << ", after "
            << pass;
        if (pass == "prune-segbinds") {
          EXPECT_TRUE(same_ir(prog.body, oracle::prune_seg_spaces(input)))
              << "depth " << depth << " / " << mode_name(mode);
        }
        input = prog.body;
      };
      compile(p, mode, o);
    }
  }
}

TEST(DeepNest, ModerateStaysSingleVersion) {
  FlattenResult d4 = flatten(deep_program(4), FlattenMode::Moderate);
  EXPECT_EQ(d4.thresholds.size(), 0u);
  EXPECT_EQ(count_segops(d4.program.body), 1);  // one flattened segmap
}

TEST(DeepNest, FourDeepSemanticsAcrossGuardSpace) {
  Program p = deep_program(4);
  FlattenResult fr = flatten(p, FlattenMode::Incremental);

  const SizeEnv sizes{{"d0", 2}, {"d1", 3}, {"d2", 2}, {"d3", 2}};
  Rng rng(99);
  Value a = Value::zeros(Scalar::F32, {2, 3, 2, 2});
  for (int64_t i = 0; i < a.count(); ++i) a.fset(i, rng.uniform(-1, 1));

  InterpCtx sctx;
  sctx.sizes = sizes;
  Values want = run_program(sctx, p, {a});

  // Sweep thresholds so every guard flips at least once.
  for (int64_t t : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8},
                    int64_t{16}, int64_t{1} << 20}) {
    for (int64_t g : {int64_t{2}, int64_t{6}, int64_t{1} << 20}) {
      InterpCtx ctx = sctx;
      ctx.thresholds.default_threshold = t;
      ctx.max_group_size = g;
      Values got = run_program(ctx, fr.program, {a});
      ASSERT_TRUE(got[0].approx_equal(want[0], 1e-4))
          << "t=" << t << " g=" << g;
    }
  }
}

TEST(DeepNest, ReductionAtTheBottom) {
  // map(map(map(redomap))): the classic 4-level shape; every version must
  // agree with the source.
  Program p;
  p.name = "deepred";
  p.inputs = {{"a", Type::array(Scalar::F32,
                                {Dim::v("d0"), Dim::v("d1"), Dim::v("d2"),
                                 Dim::v("d3")})}};
  Lambda sq = lam({ib::p("x", f32s())}, mul(var("x"), var("x")));
  p.body = map1(
      lam({ib::p("a1", Type())},
          map1(lam({ib::p("a2", Type())},
                   map1(lam({ib::p("a3", Type())},
                            redomap(binlam("+", Scalar::F32), sq,
                                    {cf32(0)}, {var("a3")})),
                        var("a2"))),
               var("a1"))),
      var("a"));
  p = typecheck_program(std::move(p));
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  EXPECT_GE(fr.thresholds.size(), 5u);

  const SizeEnv sizes{{"d0", 2}, {"d1", 2}, {"d2", 3}, {"d3", 4}};
  Rng rng(7);
  Value a = Value::zeros(Scalar::F32, {2, 2, 3, 4});
  for (int64_t i = 0; i < a.count(); ++i) a.fset(i, rng.uniform(-1, 1));
  InterpCtx sctx;
  sctx.sizes = sizes;
  Values want = run_program(sctx, p, {a});
  for (int64_t t : {int64_t{1}, int64_t{5}, int64_t{12}, int64_t{1} << 18}) {
    InterpCtx ctx = sctx;
    ctx.thresholds.default_threshold = t;
    ctx.max_group_size = 8;
    Values got = run_program(ctx, fr.program, {a});
    ASSERT_TRUE(got[0].approx_equal(want[0], 1e-4)) << "t=" << t;
  }
}

TEST(DeepNest, CostModelHandlesDeepVersions) {
  Program p = deep_program(4);
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  const DeviceProfile dev = device_vega64();
  const SizeEnv sizes{{"d0", 64}, {"d1", 16}, {"d2", 8}, {"d3", 32}};
  for (int64_t t : {int64_t{1}, int64_t{1} << 10, int64_t{1} << 15,
                    int64_t{1} << 30}) {
    ThresholdEnv env;
    env.default_threshold = t;
    RunEstimate est = estimate_run(dev, fr.program, sizes, env);
    EXPECT_GT(est.time_us, 0);
    EXPECT_TRUE(std::isfinite(est.time_us));
  }
}

TEST(DeepNest, SizeProductsPastInt64AreEvalErrors) {
  // Six dimensions of 2^12 make 2^72 points.  A version whose guard or
  // thread count needs that product is refused with an EvalError by both
  // cost models, rather than wrapping a signed product (undefined
  // behaviour).  Under the default thresholds incremental flattening takes
  // a version that parallelises d0*d1 only, which both price, although the
  // plan's sweep still evaluates the fully flattened version it never
  // reaches; with every threshold at 2^62 it falls through to that version.
  // At 2^10 per dimension (2^60 points) every version prices.
  const auto price = [](auto&& run) -> std::optional<double> {
    try {
      return run().time_us;
    } catch (const EvalError&) {
      return std::nullopt;
    }
  };
  for (const FlattenMode mode : {FlattenMode::Moderate,
                                 FlattenMode::Incremental, FlattenMode::Full}) {
    const Compiled c = compile(deep_program(6), mode);
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      for (const int bits : {10, 12}) {
        SizeEnv sizes;
        for (const char* d : {"d0", "d1", "d2", "d3", "d4", "d5"}) {
          sizes[d] = int64_t{1} << bits;
        }
        for (const bool far : {false, true}) {
          ThresholdEnv thr;
          if (far) thr.default_threshold = int64_t{1} << 62;
          const std::optional<double> plan =
              price([&] { return simulate(dev, c, sizes, thr); });
          const std::optional<double> walk = price(
              [&] { return estimate_run(dev, c.flat.program, sizes, thr); });
          SCOPED_TRACE(testing::Message()
                       << mode_name(mode) << " on " << dev.name << " at 2^"
                       << bits << (far ? ", thresholds 2^62" : ""));
          EXPECT_EQ(plan.has_value(),
                    bits == 10 || (!far && mode == FlattenMode::Incremental));
          EXPECT_EQ(plan, walk);
        }
      }
    }
  }
}

}  // namespace
}  // namespace incflat
