// Rule-level tests of the flattening transformation: each of the paper's
// inference rules (Fig. 3 / Fig. 4) is exercised on a minimal program and
// the generated structure plus its semantics are verified.
#include <gtest/gtest.h>

#include <utility>

#include "src/exec/exec.h"
#include "src/flatten/flatten.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

using namespace ib;

Type f32s() { return Type::scalar(Scalar::F32); }

Program make_program(const char* name, std::vector<Param> inputs, ExprP body,
                     std::vector<std::string> extra = {}) {
  Program p;
  p.name = name;
  p.inputs = std::move(inputs);
  p.extra_sizes = std::move(extra);
  p.body = std::move(body);
  return typecheck_program(std::move(p));
}

Value rand_arr(Rng& rng, std::vector<int64_t> shape) {
  Value v = Value::zeros(Scalar::F32, std::move(shape));
  for (int64_t i = 0; i < v.count(); ++i) v.fset(i, rng.uniform(-1, 1));
  return v;
}

/// Flatten in every mode and check value-equality with the source under a
/// few threshold assignments and group limits.
void assert_semantics(const Program& src, const SizeEnv& sizes,
                      const std::vector<Value>& inputs) {
  InterpCtx sctx;
  sctx.sizes = sizes;
  Values want = run_program(sctx, src, inputs);
  for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                           FlattenMode::Full}) {
    FlattenResult fr = flatten(src, mode);
    check_level_discipline(fr.program.body);
    for (int64_t t : {int64_t{1}, int64_t{3}, int64_t{1} << 20}) {
      InterpCtx ctx = sctx;
      ctx.thresholds.default_threshold = t;
      ctx.max_group_size = t == 3 ? 2 : (int64_t{1} << 30);
      Values got = run_program(ctx, fr.program, inputs);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].approx_equal(want[i], 1e-4))
            << src.name << " mode=" << mode_name(mode) << " t=" << t << "\n"
            << pretty(fr.program);
      }
    }
  }
}

// --------------------------------------------------------------- Rule G2

TEST(RuleG2, MapWithSequentialBodyBecomesOneSegmap) {
  // map (\x -> x*x+1) xs
  Program p = make_program(
      "g2", {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}},
      map1(lam({ib::p("x", f32s())},
               add(mul(var("x"), var("x")), cf32(1))),
           var("xs")));
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  // No inner parallelism: exactly one segmap, no thresholds.
  EXPECT_EQ(count_segops(fr.program.body), 1);
  EXPECT_EQ(fr.thresholds.size(), 0u);

  Rng rng(3);
  assert_semantics(p, {{"n", 7}}, {rand_arr(rng, {7})});
}

// --------------------------------------------------------------- Rule G3

TEST(RuleG3, NestedMapProducesGuardedVersions) {
  // map (\xs -> map (\x -> x+1) xs) xss
  Program p = make_program(
      "g3",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map1(lam({ib::p("xs", Type())},
               map1(lam({ib::p("x", f32s())}, add(var("x"), cf32(1))),
                    var("xs"))),
           var("xss")));
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  // Three versions: outer-only, intra-group, fully flattened.
  EXPECT_EQ(fr.thresholds.size(), 2u);
  EXPECT_GE(count_segops(fr.program.body), 3);
  // The two thresholds compare Par(Σ') = n and Par(e_middle) = n*m.
  EXPECT_EQ(fr.thresholds.all()[0].par.str(), "n");
  EXPECT_EQ(fr.thresholds.all()[1].par.str(), "m*n");
  // The intra threshold carries the workgroup-fit bound m.
  EXPECT_EQ(fr.thresholds.all()[1].fit.str(), "m");

  Rng rng(4);
  assert_semantics(p, {{"n", 3}, {"m", 5}}, {rand_arr(rng, {3, 5})});
}

TEST(RuleG3, ModerateProducesNoGuards) {
  Program p = make_program(
      "g3mf",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map1(lam({ib::p("xs", Type())},
               map1(lam({ib::p("x", f32s())}, add(var("x"), cf32(1))),
                    var("xs"))),
           var("xss")));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  EXPECT_EQ(fr.thresholds.size(), 0u);
}

TEST(RuleG3, DegenerateVersionsCollapseToOneSegmap) {
  // map (\xs -> transpose (map (\x -> replicate 4 x) xs)) xss: the body
  // has inner parallelism that no version exploits.  The intra-group body
  // has no seg-op, and flattening on just manifests the outer-only segmap
  // again (G5 cannot lift a rearrange of a map), so G3 emits that single
  // version and rolls back its threshold.
  Program p = make_program(
      "g3degenerate",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map1(lam({ib::p("xs", Type())},
               transpose(map1(lam({ib::p("x", f32s())},
                                  replicate(Dim::c(4), var("x"))),
                              var("xs")))),
           var("xss")));
  trace::reset();
  trace::set_enabled(true);
  const Compiled c = compile(p, FlattenMode::Incremental);
  const auto counters = trace::counters();
  trace::set_enabled(false);
  trace::reset();
  EXPECT_EQ(counters.at("flatten.rule.G3.degenerate"), 1);
  EXPECT_EQ(counters.count("flatten.rule.G3"), 0u);
  EXPECT_EQ(c.flat.thresholds.size(), 0u);
  const auto* so = c.flat.program.body->as<SegOpE>();
  ASSERT_NE(so, nullptr) << pretty(c.flat.program);
  EXPECT_EQ(so->op, SegOpE::Op::Map);
  EXPECT_EQ(so->level, 1);
  EXPECT_EQ(count_segops(c.flat.program.body), 1);

  Rng rng(15);
  for (const auto& [n, m] : {std::pair{1, 1}, std::pair{3, 2}}) {
    const SizeEnv sizes{{"n", n}, {"m", m}};
    const std::vector<Value> in{rand_arr(rng, {n, m})};
    const Values want = execute_source(c, sizes, in);
    const Values got = execute(device_k40(), c, sizes, {}, in);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].approx_equal(want[0], 0)) << n << "x" << m;
  }
}

TEST(RuleG3, DegenerateCaseUsesUpItsThresholdName) {
  // The degenerate map above, then a map G3 versions: the second map's
  // thresholds are numbered after the name the degenerate case consumed,
  // which no guard compares.
  const Type mat = Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")});
  Program p = make_program(
      "g3numbering", {{"xss", mat}},
      let1("a",
           map1(lam({ib::p("xs", Type())},
                    transpose(map1(lam({ib::p("x", f32s())},
                                       replicate(Dim::c(4), var("x"))),
                                   var("xs")))),
                var("xss")),
           let1("b",
                map1(lam({ib::p("ys", Type())},
                         map1(lam({ib::p("y", f32s())}, add(var("y"), cf32(1))),
                              var("ys"))),
                     var("xss")),
                tuple({var("a"), var("b")}))));
  const FlattenResult fr = flatten(p, FlattenMode::Incremental);
  std::vector<std::string> names;
  for (const auto& ti : fr.thresholds.all()) names.push_back(ti.name);
  EXPECT_EQ(names, (std::vector<std::string>{"suff_outer_par_1",
                                             "suff_intra_par_2"}))
      << fr.thresholds.tree_str();
}

// --------------------------------------------------------------- Rule G4

TEST(RuleG4, ReduceOfMapInterchanges) {
  // reduce (map (+)) (replicate k 0) zss == map (reduce (+) 0) (transpose)
  Program p = make_program(
      "g4",
      {{"zss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("k")})}},
      reduce(lam({ib::p("as", Type()), ib::p("bs", Type())},
                 map(binlam("+", Scalar::F32), {var("as"), var("bs")})),
             {replicate(Dim::v("k"), cf32(0))}, {var("zss")}));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  // After the G4 rewrite the program is a segred over the transpose, not a
  // vector-valued reduction.
  const std::string s = pretty(fr.program);
  EXPECT_NE(s.find("rearrange"), std::string::npos) << s;
  EXPECT_NE(s.find("segred"), std::string::npos) << s;

  Rng rng(5);
  assert_semantics(p, {{"n", 4}, {"k", 3}}, {rand_arr(rng, {4, 3})});
}

// --------------------------------------------------------------- Rule G5

TEST(RuleG5, RearrangeOfBoundVarLiftsToWholeArray) {
  // map transpose xsss == rearrange (0,2,1) xsss — no kernel at all.
  Program p = make_program(
      "g5",
      {{"xsss", Type::array(Scalar::F32,
                            {Dim::v("a"), Dim::v("b"), Dim::v("c")})}},
      map1(lam({ib::p("xs", Type())}, transpose(var("xs"))), var("xsss")));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  EXPECT_EQ(count_segops(fr.program.body), 0)
      << pretty(fr.program);  // pure metadata

  Rng rng(6);
  assert_semantics(p, {{"a", 2}, {"b", 3}, {"c", 4}},
                   {rand_arr(rng, {2, 3, 4})});
}

// --------------------------------------------------------------- Rule G6

TEST(RuleG6, DistributionExpandsIntermediateArrays) {
  // map (\xs -> let ys = scan (+) 0 xs in scan (max) -inf ys) xss:
  // the intermediate ys must become a [n][m] array between two kernels.
  Program p = make_program(
      "g6",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map1(lam({ib::p("xs", Type())},
               let1("ys", scan(binlam("+", Scalar::F32), {cf32(0)},
                               {var("xs")}),
                    scan(binlam("max", Scalar::F32), {cf32(-1e30)},
                         {var("ys")}))),
           var("xss")));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  // Moderate flattening distributes into two segscans.
  const std::string s = pretty(fr.program);
  EXPECT_EQ(count_segops(fr.program.body), 2) << s;

  Rng rng(7);
  assert_semantics(p, {{"n", 3}, {"m", 4}}, {rand_arr(rng, {3, 4})});
}

// --------------------------------------------------------------- Rule G7

TEST(RuleG7, LoopInterchangesOutwards) {
  // map (\row0 -> loop row = row0 for i < k do map (*2) row) xss  ==>
  // loop xss' = xss for i < k do (parallel double).  G7 fires because the
  // loop body contains exploitable parallelism (the paper's side
  // condition).
  Program p = make_program(
      "g7",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map1(lam({ib::p("row0", Type())},
               loop({"row"}, {var("row0")}, "i", var("k"),
                    map1(lam({ib::p("x", f32s())},
                             mul(var("x"), cf32(2))),
                         var("row")))),
           var("xss")),
      {"k"});
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  // The loop must now be the outermost construct.
  EXPECT_TRUE(fr.program.body->is<LoopE>()) << pretty(fr.program);

  Rng rng(8);
  assert_semantics(p, {{"n", 5}, {"m", 3}, {"k", 3}},
                   {rand_arr(rng, {5, 3})});
}

TEST(RuleG7, SequentialLoopBodyStaysInThread) {
  // Paper side condition: without parallel constructs in the body the loop
  // is NOT interchanged — the whole nest becomes one segmap.
  Program p = make_program(
      "g7s", {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}},
      map1(lam({ib::p("x0", f32s())},
               loop({"x"}, {var("x0")}, "i", var("k"),
                    mul(var("x"), cf32(2)))),
           var("xs")),
      {"k"});
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  EXPECT_FALSE(fr.program.body->is<LoopE>());
  EXPECT_EQ(count_segops(fr.program.body), 1) << pretty(fr.program);

  Rng rng(8);
  assert_semantics(p, {{"n", 5}, {"k", 3}}, {rand_arr(rng, {5})});
}

TEST(RuleG7, VariantTripCountSequentialises) {
  // Trip count depends on the mapped element (via f2i) — cannot
  // interchange; the nest must be manifested sequentially instead.
  Program p = make_program(
      "g7v", {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}},
      map1(lam({ib::p("x0", f32s())},
               loop({"x"}, {var("x0")}, "i",
                    un("f2i", abs_(var("x0"))),
                    add(var("x"), cf32(1)))),
           var("xs")));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  EXPECT_FALSE(fr.program.body->is<LoopE>());
  EXPECT_EQ(count_segops(fr.program.body), 1) << pretty(fr.program);

  Rng rng(9);
  Value xs = Value::zeros(Scalar::F32, {4});
  for (int64_t i = 0; i < 4; ++i) xs.fset(i, static_cast<double>(i) + 0.5);
  assert_semantics(p, {{"n", 4}}, {xs});
}

// --------------------------------------------------------------- Rule G8

TEST(RuleG8, InvariantBranchPushesMapInwards) {
  // map (\xs -> if flag then map(+1) xs else map(*2) xs) xss with invariant
  // flag: incremental flattening hoists the branch above the kernels.
  Program p = make_program(
      "g8",
      {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})},
       {"flag", Type::scalar(Scalar::Bool)}},
      map1(lam({ib::p("xs", Type())},
               iff(var("flag"),
                   map1(lam({ib::p("x", f32s())}, add(var("x"), cf32(1))),
                        var("xs")),
                   map1(lam({ib::p("y", f32s())}, mul(var("y"), cf32(2))),
                        var("xs")))),
           var("xss")));
  FlattenResult inc = flatten(p, FlattenMode::Incremental);
  // The top of the flattened body must be the data If on `flag` (after the
  // G3 guards), i.e. both arms contain their own kernels.
  EXPECT_GE(count_segops(inc.program.body), 2) << pretty(inc.program);

  Rng rng(10);
  std::vector<Value> inputs{rand_arr(rng, {3, 4}), Value::scalar_bool(true)};
  assert_semantics(p, {{"n", 3}, {"m", 4}}, inputs);
  inputs[1] = Value::scalar_bool(false);
  assert_semantics(p, {{"n", 3}, {"m", 4}}, inputs);
}

// --------------------------------------------------------------- Rule G9

TEST(RuleG9, RedomapWithInnerParallelismIsVersioned) {
  // map (\xss -> redomap (+) (\row -> reduce (+) 0 row) 0 xss) xsss:
  // the redomap's map function has inner parallelism, so G9 must emit a
  // guarded segred plus a decomposed recursive version.
  Lambda row_sum =
      lam({ib::p("row", Type())},
          reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("row")}));
  Program p = make_program(
      "g9",
      {{"xsss", Type::array(Scalar::F32,
                            {Dim::v("a"), Dim::v("b"), Dim::v("c")})}},
      map1(lam({ib::p("xss", Type())},
               redomap(binlam("+", Scalar::F32), row_sum, {cf32(0)},
                       {var("xss")})),
           var("xsss")));
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  EXPECT_GE(fr.thresholds.size(), 3u) << fr.thresholds.tree_str();
  const std::string s = pretty(fr.program);
  EXPECT_NE(s.find("segred"), std::string::npos);

  Rng rng(11);
  assert_semantics(p, {{"a", 2}, {"b", 3}, {"c", 4}},
                   {rand_arr(rng, {2, 3, 4})});
}

TEST(RuleG9, RedomapWithoutInnerParallelismIsDirectSegred) {
  // The "not-shown rule": no versioning needed.
  Lambda sq = lam({ib::p("x", f32s())}, mul(var("x"), var("x")));
  Program p = make_program(
      "g9d", {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}},
      redomap(binlam("+", Scalar::F32), sq, {cf32(0)}, {var("xs")}));
  FlattenResult fr = flatten(p, FlattenMode::Incremental);
  EXPECT_EQ(fr.thresholds.size(), 0u);
  EXPECT_EQ(count_segops(fr.program.body), 1);

  Rng rng(12);
  assert_semantics(p, {{"n", 6}}, {rand_arr(rng, {6})});
}

// ------------------------------------------------------- structural passes

TEST(Prune, DeadSpaceBindingsAreRemoved) {
  // LocVolCalib-style: after G7+G6, manifested kernels must not bind the
  // arrays their bodies do not use.
  Program p = make_program(
      "prune",
      {{"ass", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})},
       {"bss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}},
      map(lam({ib::p("as", Type()), ib::p("bs", Type())},
              tuple({scan(binlam("+", Scalar::F32), {cf32(0)}, {var("as")}),
                     scan(binlam("+", Scalar::F32), {cf32(0)},
                          {var("bs")})})),
          {var("ass"), var("bss")}));
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  // Each segscan must bind exactly its own input chain (one param per
  // level), not the sibling's.
  std::function<void(const ExprP&)> walk = [&](const ExprP& e) {
    if (!e) return;
    if (auto* so = e->as<SegOpE>()) {
      for (const auto& lvl : so->space) {
        EXPECT_LE(lvl.params.size(), 1u) << pretty(fr.program);
      }
      return;
    }
    if (auto* l = e->as<LetE>()) {
      walk(l->rhs);
      walk(l->body);
    } else if (auto* t = e->as<TupleE>()) {
      for (const auto& x : t->elems) walk(x);
    }
  };
  walk(fr.program.body);

  Rng rng(13);
  assert_semantics(p, {{"n", 3}, {"m", 4}},
                   {rand_arr(rng, {3, 4}), rand_arr(rng, {3, 4})});
}

TEST(ChainCollapse, IdentityNestEmitsNoCopyKernel) {
  // map (\x0 -> loop x = x0 for i < k do x) xs — the loop body returns its
  // state unchanged; flattening must not emit per-iteration copy kernels.
  Program p = make_program(
      "ident", {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}},
      map1(lam({ib::p("x0", f32s())},
               loop({"x"}, {var("x0")}, "i", var("k"),
                    let1("y",
                         map1(lam({ib::p("q", f32s())}, var("q")),
                              iota(Dim::c(1))),
                         var("x")))),
           var("xs")),
      {"k"});
  // (The inner dummy map keeps the body parallel so G7 fires.)
  FlattenResult fr = flatten(p, FlattenMode::Moderate);
  Rng rng(14);
  assert_semantics(p, {{"n", 4}, {"k", 2}}, {rand_arr(rng, {4})});
}

}  // namespace
}  // namespace incflat
