// Unit tests: the pre-flattening passes — A-normalisation (SOAC hoisting)
// and producer-consumer fusion — plus block-tiling detection.
#include <gtest/gtest.h>

#include "src/exec/exec.h"
#include "src/flatten/fusion.h"
#include "src/flatten/normalize.h"
#include "src/flatten/tiling.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"

namespace incflat {
namespace {

using namespace ib;

Type f32s() { return Type::scalar(Scalar::F32); }

TEST(Normalize, HoistsSoacOutOfBinop) {
  // 1 + reduce(...)  ==>  let anf = reduce(...) in 1 + anf
  ExprP e = add(cf32(1),
                reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}));
  ExprP n = normalize_expr(e);
  auto* l = n->as<LetE>();
  ASSERT_NE(l, nullptr) << pretty(n);
  EXPECT_TRUE(l->rhs->is<ReduceE>());
  EXPECT_TRUE(l->body->is<BinOpE>());
}

TEST(Normalize, HoistsSoacOutOfUnopChain) {
  ExprP e = exp_(neg(redomap(binlam("+", Scalar::F32),
                             lam({p("x", f32s())}, var("x")), {cf32(0)},
                             {var("xs")})));
  ExprP n = normalize_expr(e);
  EXPECT_TRUE(n->is<LetE>()) << pretty(n);
}

TEST(Normalize, LeavesBindingPositionsAlone) {
  ExprP e = let1("ys", map1(lam({p("x", f32s())}, var("x")), var("xs")),
                 var("ys"));
  ExprP n = normalize_expr(e);
  auto* l = n->as<LetE>();
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->rhs->is<MapE>());  // unchanged
}

TEST(Normalize, HoistsFromLoopInits) {
  ExprP e = loop({"a"}, {reduce(binlam("+", Scalar::F32), {cf32(0)},
                                {var("xs")})},
                 "i", ci64(2), add(var("a"), cf32(1)));
  ExprP n = normalize_expr(e);
  EXPECT_TRUE(n->is<LetE>()) << pretty(n);
}

TEST(Normalize, PreservesSemantics) {
  Program p;
  p.name = "norm";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = divide(
      cf32(1),
      add(cf32(1), exp_(neg(reduce(binlam("+", Scalar::F32), {cf32(0)},
                                   {var("xs")})))));
  p = typecheck_program(std::move(p));
  Program np = normalize_program(p);

  InterpCtx ctx;
  ctx.sizes = {{"n", 5}};
  Value xs = Value::zeros(Scalar::F32, {5});
  for (int64_t i = 0; i < 5; ++i) xs.fset(i, 0.1 * static_cast<double>(i));
  Values a = run_program(ctx, p, {xs});
  Values b = run_program(ctx, np, {xs});
  EXPECT_TRUE(a[0].approx_equal(b[0]));
}

TEST(Normalize, LetBindsInlineSoacArrayOperands) {
  // map (\x -> reduce (+) 0 (map (\y -> x + y) (iota n))) (iota n): the
  // inner map is an array operand that depends on x, so the flattener cannot
  // hoist it out of the map-nest context; normalize let-binds it instead.
  const Type i64 = Type::scalar(Scalar::I64);
  ExprP inner = map1(lam({p("y", i64)}, add(var("x"), var("y"))),
                     iota(Dim::v("n")));
  Program prog;
  prog.name = "inline_operand";
  prog.extra_sizes = {"n"};
  prog.body = map1(lam({p("x", i64)}, reduce(binlam("+", Scalar::I64),
                                             {ci64(0)}, {std::move(inner)})),
                   iota(Dim::v("n")));
  prog = typecheck_program(std::move(prog));

  const ExprP n = normalize_expr(prog.body);
  const auto* m = n->as<MapE>();
  ASSERT_NE(m, nullptr) << pretty(n);
  const auto* l = m->f.body->as<LetE>();
  ASSERT_NE(l, nullptr) << pretty(n);
  EXPECT_TRUE(l->rhs->is<MapE>()) << pretty(n);
  const auto* r = l->body->as<ReduceE>();
  ASSERT_NE(r, nullptr) << pretty(n);
  EXPECT_TRUE(r->arrays[0]->is<VarE>()) << pretty(n);

  for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                           FlattenMode::Full}) {
    for (bool fuse : {true, false}) {
      CompileOptions o;
      o.flatten.fuse = fuse;
      const Compiled c = compile(prog, mode, o);
      for (int64_t size : {1, 3, 17}) {
        for (int64_t t : {int64_t{1}, int64_t{64}, int64_t{1} << 40}) {
          const SizeEnv sizes{{"n", size}};
          ThresholdEnv te;
          te.default_threshold = t;
          const Values want = execute_source(c, sizes, {});
          const Values got = execute(device_k40(), c, sizes, te, {});
          ASSERT_EQ(got.size(), want.size());
          EXPECT_TRUE(got[0].approx_equal(want[0], 0))
              << mode_name(mode) << " fuse=" << fuse << " n=" << size
              << " t=" << t << ": " << got[0].str() << " != "
              << want[0].str();
        }
      }
    }
  }
}

TEST(Fusion, MapIntoReduceBecomesRedomap) {
  ExprP e = let1("ys",
                 map1(lam({p("x", f32s())}, mul(var("x"), var("x"))),
                      var("xs")),
                 reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("ys")}));
  ExprP f = fuse_expr(e);
  EXPECT_TRUE(f->is<RedomapE>()) << pretty(f);
}

TEST(Fusion, MapIntoScanBecomesScanomap) {
  ExprP e = let1("ys",
                 map1(lam({p("x", f32s())}, mul(var("x"), cf32(2))),
                      var("xs")),
                 scan(binlam("+", Scalar::F32), {cf32(0)}, {var("ys")}));
  ExprP f = fuse_expr(e);
  EXPECT_TRUE(f->is<ScanomapE>()) << pretty(f);
}

TEST(Fusion, FusesThroughInterposedLet) {
  // let ys = map f xs in let s = reduce + ys in s * 2, ys dead afterwards.
  ExprP e = let1(
      "ys", map1(lam({p("x", f32s())}, var("x")), var("xs")),
      let1("s", reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("ys")}),
           mul(var("s"), cf32(2))));
  ExprP f = fuse_expr(e);
  auto* l = f->as<LetE>();
  ASSERT_NE(l, nullptr) << pretty(f);
  EXPECT_TRUE(l->rhs->is<RedomapE>()) << pretty(f);
}

TEST(Fusion, DoesNotFuseWhenProducerStillUsed) {
  // ys used both by the reduce and afterwards: no fusion.
  ExprP e = let1(
      "ys", map1(lam({p("x", f32s())}, var("x")), var("xs")),
      let1("s", reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("ys")}),
           reduce(binlam("max", Scalar::F32), {cf32(-1e30)}, {var("ys")})));
  ExprP f = fuse_expr(e);
  auto* l = f->as<LetE>();
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(l->rhs->is<MapE>()) << pretty(f);
}

TEST(Fusion, DoesNotFuseDifferentArray) {
  ExprP e = let1("ys", map1(lam({p("x", f32s())}, var("x")), var("xs")),
                 reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("zs")}));
  ExprP f = fuse_expr(e);
  EXPECT_FALSE(f->is<RedomapE>());
}

TEST(Fusion, PreservesSemantics) {
  Program p;
  p.name = "fuse";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = let1("ys",
                map1(lam({ib::p("x", f32s())}, mul(var("x"), var("x"))),
                     var("xs")),
                reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("ys")}));
  p = typecheck_program(std::move(p));
  Program fp = fuse_program(p);
  EXPECT_EQ(count_fused(fp.body), 1);

  InterpCtx ctx;
  ctx.sizes = {{"n", 4}};
  Value xs = Value::zeros(Scalar::F32, {4});
  for (int64_t i = 0; i < 4; ++i) xs.fset(i, static_cast<double>(i));
  EXPECT_TRUE(run_program(ctx, p, {xs})[0].approx_equal(
      run_program(ctx, fp, {xs})[0]));
}

TEST(Fusion, CountsFusedSoacsInsideOperators) {
  // A redomap fused inside a scan operator: count_fused enters scans and
  // operator lambdas, so both the outer scanomap and the inner redomap count.
  const Type f32 = f32s();
  ExprP inner = let1(
      "zs", map1(lam({p("z", f32)}, mul(var("z"), var("a"))), var("ws")),
      reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("zs")}));
  Lambda op = lam({p("a", f32), p("b", f32)}, add(inner, var("b")));
  ExprP e = let1("ys", map1(lam({p("x", f32)}, var("x")), var("xs")),
                 scan(std::move(op), {cf32(0)}, {var("ys")}));
  const ExprP f = fuse_expr(e);
  ASSERT_TRUE(f->is<ScanomapE>()) << pretty(f);
  EXPECT_EQ(count_fused(f), 2) << pretty(f);
}

TEST(Tiling, MarksMatmulStyleSegmap) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")},
              SegBind{{"ys"}, {"yst"}, Dim::v("k")}};
  so.body = redomap(binlam("+", Scalar::F32),
                    lam({p("x", f32s()), p("y", f32s())},
                        mul(var("x"), var("y"))),
                    {cf32(0)}, {var("xs"), var("ys")});
  Program p;
  p.name = "t";
  p.body = mk(std::move(so));
  Program marked = apply_tiling(std::move(p));
  EXPECT_EQ(count_tiled(marked.body), 1);
}

TEST(Tiling, SkipsOneDimensionalSpaces) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  so.body = redomap(binlam("+", Scalar::F32),
                    lam({p("x", f32s())}, var("x")), {cf32(0)},
                    {var("xs")});
  Program p;
  p.name = "t";
  p.body = mk(std::move(so));
  EXPECT_EQ(count_tiled(apply_tiling(std::move(p)).body), 0);
}

TEST(Tiling, SkipsIntraGroupKernels) {
  SegOpE inner;
  inner.op = SegOpE::Op::Red;
  inner.level = 0;
  inner.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner.combine = binlam("+", Scalar::F32);
  inner.neutral = {cf32(0)};
  inner.body = var("x");
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")},
              SegBind{{"ys"}, {"yst"}, Dim::v("k")}};
  so.body = mk(std::move(inner));
  Program p;
  p.name = "t";
  p.body = mk(std::move(so));
  EXPECT_EQ(count_tiled(apply_tiling(std::move(p)).body), 0);
}

}  // namespace
}  // namespace incflat
