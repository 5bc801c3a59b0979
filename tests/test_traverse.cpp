// Unit tests: structural traversals — the child walker and mapper, IR
// equality, node facts, free variables, SOAC detection, substitution,
// counting.  Node facts and free variables are checked against the
// reference walks in traverse_oracle.h.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "tests/traverse_oracle.h"

namespace incflat {
namespace {

using namespace ib;

// ------------------------------------------------------------- IR equality

/// The fields a SameIr tree is built from: one of each kind same_ir
/// compares, plus the two annotations it ignores.
struct IrKnobs {
  std::string name = "x";
  std::string op = "+";
  double konst = 1.0;
  std::vector<int> perm{1, 0};
  Dim dim = Dim::v("m");
  int level = 1;
  bool tiled = false;
  std::string threshold = "t0";
  SizeExpr par = SizeExpr::of(Dim::v("n"));
  SizeExpr fit = SizeExpr::of(Dim::v("m"));
  std::vector<Type> types;  // ignored
  Type param_type = Type::scalar(Scalar::F32);  // ignored
};

/// segred^l <xs in xss> <x in xs> (\a b -> a + b) (0)
///   (if par >= t then (x op konst) else (rearrange perm zss)[0])
ExprP ir_of(const IrKnobs& k) {
  ExprP version = mk(BinOpE{k.op, var(k.name), cf32(k.konst)}, k.types);
  ExprP other = index(rearrange(k.perm, var("zss")), {ci64(0)});
  ExprP guard = mk(ThresholdCmpE{k.threshold, k.par, k.fit});
  SegOpE so;
  so.op = SegOpE::Op::Red;
  so.level = k.level;
  so.block_tiled = k.tiled;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")},
              SegBind{{"x"}, {"xs"}, k.dim}};
  so.combine = lam({p("a", k.param_type), p("b", k.param_type)},
                   add(var("a"), var("b")));
  so.neutral = {cf32(0)};
  so.body = iff(guard, version, other);
  return mk(std::move(so));
}

TEST(Traverse, SameIrIgnoresOnlyAnnotations) {
  const IrKnobs base;
  const ExprP e = ir_of(base);
  EXPECT_TRUE(same_ir(e, e));  // shared pointer
  EXPECT_TRUE(same_ir(e, ir_of(base)));
  EXPECT_FALSE(same_ir(e, nullptr));

  IrKnobs k = base;
  k.types = {Type::scalar(Scalar::F32)};
  EXPECT_TRUE(same_ir(e, ir_of(k))) << "node types";
  k = base;
  k.param_type = Type::scalar(Scalar::I64);
  EXPECT_TRUE(same_ir(e, ir_of(k))) << "lambda parameter types";

  auto differs = [&](const char* what, auto set) {
    IrKnobs v = base;
    set(v);
    EXPECT_FALSE(same_ir(e, ir_of(v))) << what;
    EXPECT_FALSE(same_ir(ir_of(v), e)) << what;
  };
  differs("name", [](IrKnobs& v) { v.name = "y"; });
  differs("op", [](IrKnobs& v) { v.op = "*"; });
  differs("constant", [](IrKnobs& v) { v.konst = 2.0; });
  differs("perm", [](IrKnobs& v) { v.perm = {0, 1}; });
  differs("dim", [](IrKnobs& v) { v.dim = Dim::v("k"); });
  differs("level", [](IrKnobs& v) { v.level = 0; });
  differs("block_tiled", [](IrKnobs& v) { v.tiled = true; });
  differs("threshold", [](IrKnobs& v) { v.threshold = "t1"; });
  differs("par", [](IrKnobs& v) { v.par = SizeExpr::of(Dim::v("k")); });
  differs("fit", [](IrKnobs& v) { v.fit = SizeExpr{}; });

  // 1e-9 and 2e-9 print alike ("0.0000f32"), yet are different constants.
  IrKnobs tiny = base, tinier = base;
  tiny.konst = 1e-9;
  tinier.konst = 2e-9;
  EXPECT_EQ(pretty(ir_of(tiny)), pretty(ir_of(tinier)));
  EXPECT_FALSE(same_ir(ir_of(tiny), ir_of(tinier)));
}

// ------------------------------------------------------ child walker/mapper

/// One expected child: the placeholder, the names bound over it (in
/// Binders::each order) and its path under "at".
struct WantChild {
  ExprP expr;
  std::vector<std::string> binds;
  std::string path;
};

struct NodeCase {
  ExprP node;
  std::vector<WantChild> children;
};

std::vector<std::string> bound_names(const Binders& b) {
  std::vector<std::string> out;
  b.each([&](const std::string& n) { out.push_back(n); });
  return out;
}

/// One node of every kind over distinct placeholder variables, with the
/// children for_each_child must list.
std::vector<NodeCase> node_cases() {
  std::vector<ExprP> c;  // distinct placeholder children
  for (int i = 0; i < 4; ++i) c.push_back(var("c" + std::to_string(i)));
  const Type i64 = Type::scalar(Scalar::I64);
  const Lambda op{{p("a", i64), p("b", i64)}, c[2]};
  const Lambda f{{p("x", i64)}, c[3]};
  const std::vector<std::string> none;
  const std::vector<std::string> ab{"a", "b"};
  SegOpE red;
  red.op = SegOpE::Op::Red;
  red.level = 1;
  red.space = {SegBind{{"x"}, {"xs"}, Dim::v("n")},
               SegBind{{"y"}, {"x"}, Dim::v("m")}};
  red.combine = Lambda{{p("a", i64), p("b", i64)}, c[1]};
  red.neutral = {c[0]};
  red.body = c[2];
  SegOpE segmap = red;  // a segmap's combine operator is not a child
  segmap.op = SegOpE::Op::Map;
  segmap.level = 0;
  segmap.neutral = {};

  return {
      {var("v"), {}},
      {ci64(1), {}},
      {add(c[0], c[1]), {{c[0], none, "at"}, {c[1], none, "at"}}},
      {neg(c[0]), {{c[0], none, "at"}}},
      {iff(c[0], c[1], c[2]),
       {{c[0], none, "at.cond"},
        {c[1], none, "at.then"},
        {c[2], none, "at.else"}}},
      {letn({"u", "w"}, c[0], c[1]),
       {{c[0], none, "at.u="}, {c[1], {"u", "w"}, "at"}}},
      {loop({"s", "t"}, {c[0], c[1]}, "i", c[2], c[3]),
       {{c[0], none, "at"},
        {c[1], none, "at"},
        {c[2], none, "at"},
        {c[3], {"s", "t", "i"}, "at.loop"}}},
      {map(f, {c[0], c[1]}),
       {{c[0], none, "at"}, {c[1], none, "at"}, {c[3], {"x"}, "at.map"}}},
      {reduce(op, {c[0]}, {c[1]}),
       {{c[0], none, "at"}, {c[1], none, "at"}, {c[2], ab, "at.reduce"}}},
      {scan(op, {c[0]}, {c[1]}),
       {{c[0], none, "at"}, {c[1], none, "at"}, {c[2], ab, "at.scan"}}},
      {redomap(op, f, {c[0]}, {c[1]}),
       {{c[0], none, "at"},
        {c[1], none, "at"},
        {c[2], ab, "at.redomap"},
        {c[3], {"x"}, "at.redomap"}}},
      {scanomap(op, f, {c[0]}, {c[1]}),
       {{c[0], none, "at"},
        {c[1], none, "at"},
        {c[2], ab, "at.scanomap"},
        {c[3], {"x"}, "at.scanomap"}}},
      {replicate(Dim::v("n"), c[0]), {{c[0], none, "at"}}},
      {rearrange({1, 0}, c[0]), {{c[0], none, "at"}}},
      {iota(Dim::v("n")), {}},
      {index(c[0], {c[1], c[2]}),
       {{c[0], none, "at"}, {c[1], none, "at"}, {c[2], none, "at"}}},
      {tuple({c[0], c[1]}), {{c[0], none, "at[0]"}, {c[1], none, "at[1]"}}},
      {mk(red),
       {{c[0], none, "at.segred^1.neutral"},
        {c[1], {"x", "y", "a", "b"}, "at.segred^1.combine"},
        {c[2], {"x", "y"}, "at.segred^1.body"}}},
      {mk(segmap), {{c[2], {"x", "y"}, "at.segmap^0.body"}}},
      {mk(ThresholdCmpE{"t0", SizeExpr::one(), SizeExpr{}}), {}},
  };
}

TEST(Traverse, EachNodeKindListsItsChildren) {
  const Type i64 = Type::scalar(Scalar::I64);
  std::set<size_t> kinds;
  for (const NodeCase& k : node_cases()) {
    const ExprP node = mk(k.node->node, {i64});
    kinds.insert(node->node.index());
    const std::string ctx = pretty(node);

    size_t n = 0;
    for_each_child(*node, [&](const Child& ch) {
      ASSERT_LT(n, k.children.size()) << ctx;
      const WantChild& want = k.children[n++];
      EXPECT_EQ(ch.expr, want.expr) << ctx;
      EXPECT_EQ(&ch.parent, node.get()) << ctx;
      EXPECT_EQ(bound_names(ch.binds), want.binds) << ctx;
      EXPECT_EQ(ch.binds.empty(), want.binds.empty()) << ctx;
      EXPECT_EQ(ch.path("at"), want.path) << ctx;
    });
    EXPECT_EQ(n, k.children.size()) << ctx;

    EXPECT_EQ(map_children(node, [](const Child& ch) { return ch.expr; }),
              node)
        << ctx;

    std::vector<ExprP> fresh;
    const ExprP mapped = map_children(node, [&](const Child&) {
      // Not "r" + to_string(..): GCC 12's -Wrestrict misfires on it here.
      std::string name = "r";
      fresh.push_back(var(name.append(std::to_string(fresh.size()))));
      return fresh.back();
    });
    ASSERT_EQ(fresh.size(), k.children.size()) << ctx;
    EXPECT_EQ(mapped->node.index(), node->node.index()) << ctx;
    EXPECT_EQ(mapped->types, node->types) << ctx;
    if (!fresh.empty()) {
      EXPECT_NE(mapped, node) << ctx;
    }
    // Everything but the children is kept: the text differs only in the
    // placeholder names.
    std::string want_text = ctx;
    for (size_t j = 0; j < fresh.size(); ++j) {
      const std::string& from = k.children[j].expr->as<VarE>()->name;
      want_text.replace(want_text.find(from), from.size(),
                        fresh[j]->as<VarE>()->name);
    }
    EXPECT_EQ(pretty(mapped), want_text);
    size_t m = 0;
    for_each_child(*mapped, [&](const Child& ch) {
      ASSERT_LT(m, fresh.size()) << ctx;
      EXPECT_EQ(ch.expr, fresh[m++]) << ctx;
    });
    EXPECT_EQ(m, fresh.size()) << ctx;
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<ExprNode>);
}

// ------------------------------------------- node facts and free variables

TEST(Traverse, NodeFactsAndFreeVarsMatchReferenceWalks) {
  // A map, then a seg-op, at each child position of every node kind in
  // turn.  The fixture's placeholders are plain variables and no suite
  // seg-op has a SOAC in its combine operator, so only this case catches a
  // facts computation that skips a child, such as a segred's combine
  // operator or a lambda body.
  const Type i64 = Type::scalar(Scalar::I64);
  const ExprP soac = map1(lam({p("z", i64)}, var("z")), var("zs"));
  SegOpE seg;
  seg.space = {SegBind{{"z"}, {"zs"}, Dim::v("n")}};
  seg.body = var("z");
  const ExprP segop = mk(std::move(seg));
  for (const NodeCase& k : node_cases()) {
    const ExprP node = mk(k.node->node, {i64});
    const std::string ctx = pretty(node);
    EXPECT_FALSE(node->soacs_below()) << ctx;
    EXPECT_FALSE(node->segops_below()) << ctx;
    EXPECT_EQ(oracle::first_mismatch(node), "") << ctx;
    for (const ExprP& inner : {soac, segop}) {
      for (size_t at = 0; at < k.children.size(); ++at) {
        size_t pos = 0;
        const ExprP placed = map_children(node, [&](const Child& c) {
          return pos++ == at ? inner : c.expr;
        });
        const std::string where = pretty(placed);
        EXPECT_TRUE(placed->soacs_below()) << where;
        EXPECT_EQ(placed->segops_below(), inner == segop) << where;
        EXPECT_TRUE(has_soacs(placed)) << where;
        EXPECT_EQ(oracle::first_mismatch(placed), "") << where;
      }
    }
  }
}

TEST(Traverse, QueriesMatchReferenceWalksOnTheSuite) {
  // Every suite program after every pass, in all three modes, fused and
  // unfused; and prune-segbinds' output against the set-based pass on the
  // same input.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    EXPECT_EQ(oracle::first_mismatch(b.program.body), "") << name;
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      for (bool fuse : {true, false}) {
        CompileOptions o;
        o.flatten.fuse = fuse;
        int passes = 0;
        ExprP input = b.program.body;
        o.after_pass = [&](const std::string& pass, const Program& prog) {
          ++passes;
          const std::string ctx = name + " / " + mode_name(mode) +
                                  " / fuse " + std::to_string(fuse) +
                                  ", after " + pass;
          EXPECT_EQ(oracle::first_mismatch(prog.body), "") << ctx;
          if (pass == "prune-segbinds") {
            EXPECT_TRUE(
                same_ir(prog.body, oracle::prune_seg_spaces(input)))
                << ctx;
          }
          input = prog.body;
        };
        compile(b.program, mode, o);
        EXPECT_GE(passes, 5) << name;
      }
    }
  }
}

TEST(FreeVars, BindersShadow) {
  // let x = y in x + z : free = {y, z}
  ExprP e = let1("x", var("y"), add(var("x"), var("z")));
  auto fv = free_vars(e);
  EXPECT_TRUE(fv.count("y"));
  EXPECT_TRUE(fv.count("z"));
  EXPECT_FALSE(fv.count("x"));
}

TEST(FreeVars, LambdaParamsBound) {
  ExprP e = map1(lam({p("x", Type::scalar(Scalar::F32))},
                     add(var("x"), var("c"))),
                 var("xs"));
  auto fv = free_vars(e);
  EXPECT_TRUE(fv.count("xs"));
  EXPECT_TRUE(fv.count("c"));
  EXPECT_FALSE(fv.count("x"));
}

TEST(FreeVars, LoopBindsParamsAndIndex) {
  ExprP e = loop({"acc"}, {var("init")}, "i", var("n"),
                 add(var("acc"), var("i")));
  auto fv = free_vars(e);
  EXPECT_TRUE(fv.count("init"));
  EXPECT_TRUE(fv.count("n"));
  EXPECT_FALSE(fv.count("acc"));
  EXPECT_FALSE(fv.count("i"));
}

TEST(FreeVars, SegSpaceArraysAreFreeParamsAreBound) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"x"}, {"xs"}, Dim::v("n")}};
  so.body = add(var("x"), var("k"));
  auto fv = free_vars(mk(std::move(so)));
  EXPECT_TRUE(fv.count("xs"));
  EXPECT_TRUE(fv.count("k"));
  EXPECT_TRUE(fv.count("n"));  // size vars count as free
  EXPECT_FALSE(fv.count("x"));
}

TEST(FreeVars, DimVarsInIotaCount) {
  EXPECT_TRUE(free_vars(iota(Dim::v("n"))).count("n"));
  EXPECT_TRUE(free_vars(replicate(Dim::v("m"), cf32(0))).count("m"));
}

TEST(HasSoacs, DetectsNestedParallelism) {
  EXPECT_FALSE(has_soacs(add(cf32(1), cf32(2))));
  EXPECT_TRUE(has_soacs(map1(lam({p("x", Type())}, var("x")), var("xs"))));
  // SOAC nested inside a scalar op / loop body.
  ExprP nested =
      add(cf32(1), reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}));
  EXPECT_TRUE(has_soacs(nested));
  ExprP in_loop = loop({"a"}, {cf32(0)}, "i", ci64(3),
                       reduce(binlam("+", Scalar::F32), {cf32(0)},
                              {var("xs")}));
  EXPECT_TRUE(has_soacs(in_loop));
  EXPECT_FALSE(has_soacs(iota(Dim::v("n"))));
  EXPECT_FALSE(has_soacs(rearrange({1, 0}, var("m"))));
}

TEST(Subst, ReplacesVarWithExpression) {
  ExprP e = add(var("a"), var("a"));
  ExprP s = subst_vars(e, {{"a", mul(cf32(2), var("b"))}});
  auto fv = free_vars(s);
  EXPECT_TRUE(fv.count("b"));
  EXPECT_FALSE(fv.count("a"));
}

TEST(Subst, BindersShadowSubstitution) {
  ExprP e = let1("a", cf32(1), var("a"));
  ExprP s = subst_vars(e, {{"a", var("b")}});
  EXPECT_FALSE(free_vars(s).count("b"));
}

TEST(Counting, NodesAndSegops) {
  ExprP e = add(cf32(1), mul(cf32(2), cf32(3)));
  EXPECT_EQ(count_nodes(e), 5);
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"x"}, {"xs"}, Dim::v("n")}};
  so.body = var("x");
  EXPECT_EQ(count_segops(mk(std::move(so))), 1);
  EXPECT_EQ(count_segops(e), 0);
}

TEST(Pretty, RoundTripsKeySyntax) {
  ExprP e = map1(lam({p("x", Type::scalar(Scalar::F32))},
                     add(var("x"), cf32(1))),
                 var("xs"));
  const std::string s = pretty(e);
  EXPECT_NE(s.find("map"), std::string::npos);
  EXPECT_NE(s.find("\\x ->"), std::string::npos);
  EXPECT_NE(s.find("xs"), std::string::npos);
}

}  // namespace
}  // namespace incflat
