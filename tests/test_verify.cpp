// Negative tests for the on-demand IR verifier (src/ir/verify.h): programs
// seeded with deliberate structural violations — a wrong type annotation,
// level-discipline breakage, an intra-group code version with no feasible
// fallback arm, a threshold compared by two guards, a guard inside a
// kernel, dangling or malformed seg-space bindings — must each be caught
// with a diagnostic that names the failed check and the pipeline position
// it is attributed to.
#include <gtest/gtest.h>

#include <string>

#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
#include "src/ir/verify.h"

namespace incflat {
namespace {

using namespace ib;

Type mat_f32() {
  return Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")});
}

/// segmap^1 <xs in xss> BODY, the standard outer nest for these tests.
ExprP seg1(ExprP body) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  so.body = std::move(body);
  return mk(std::move(so));
}

/// segred^0 <x in xs> (+) 0 (x): a parallel inner seg-op.
ExprP segred0_over_xs() {
  SegOpE so;
  so.op = SegOpE::Op::Red;
  so.level = 0;
  so.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  so.combine = binlam("+", Scalar::F32);
  so.neutral = {cf32(0)};
  so.body = var("x");
  return mk(std::move(so));
}

Program target_program(ExprP body) {
  Program p;
  p.name = "seeded";
  p.inputs = {{"xss", mat_f32()}};
  p.body = std::move(body);
  return p;
}

VerifyOptions only(bool types, bool levels, bool guards, bool segbinds) {
  VerifyOptions o;
  o.types = types;
  o.levels = levels;
  o.guards = guards;
  o.segbinds = segbinds;
  return o;
}

TEST(Verify, CleanTargetProgramPasses) {
  // segmap^1 over a sequentially-executed redomap — the shape moderate
  // flattening produces.  Sequential SOACs in the body are not seg-ops, so
  // this is not an intra-group version and needs no guard.
  Program p = target_program(
      seg1(redomap(binlam("+", Scalar::F32),
                   lam({ib::p("x", Type::scalar(Scalar::F32))}, var("x")),
                   {cf32(0)}, {var("xs")})));
  p = typecheck_program(std::move(p));
  EXPECT_NO_THROW(verify_program(p));
}

TEST(Verify, TypeErrorIsAttributed) {
  Program p = target_program(add(var("xss"), cf32(1)));  // array + scalar
  try {
    verify_program(p, "after pass 'normalize'");
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "types");
    EXPECT_EQ(e.context(), "after pass 'normalize'");
    EXPECT_NE(std::string(e.what()).find("after pass 'normalize'"),
              std::string::npos);
  }
}

TEST(Verify, CatchesWrongAnnotation) {
  // let ys = segmap^1 <xs in xss> (map (\x -> x + 1) xs) in ys, typechecked.
  // The passes annotate what they build, so the types check must also
  // catch a well-typed program that carries a wrong annotation.
  const Lambda inc = lam({ib::p("x", Type())}, add(var("x"), cf32(1)));
  Program p = target_program(let1("ys", seg1(map1(inc, var("xs"))), var("ys")));
  p = typecheck_program(std::move(p));
  ASSERT_TRUE(verify_diagnostics(p).empty());
  const auto* l = p.body->as<LetE>();
  const ExprP& seg = l->rhs;

  // The segmap annotated with its body's type, lacking the space's outer
  // dim n: reported at the segmap itself, not at its correct children.
  const Type lacking = seg->type().row();
  Program bad = p;
  bad.body =
      mk(LetE{l->vars, mk(seg->node, {lacking}), l->body}, p.body->types);
  std::vector<Diagnostic> ds =
      verify_diagnostics(bad, "after pass 'incremental'",
                         only(true, false, false, false));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].check, "types");
  EXPECT_EQ(ds[0].context, "after pass 'incremental'");
  EXPECT_EQ(ds[0].path, "body.ys=");
  EXPECT_NE(ds[0].message.find(lacking.str()), std::string::npos);
  EXPECT_NE(ds[0].message.find(seg->type().str()), std::string::npos);
  EXPECT_THROW(verify_program(bad), VerifyError);

  // The inner map's lambda parameter annotated i64 instead of f32.
  SegOpE so = *seg->as<SegOpE>();
  MapE m = *so.body->as<MapE>();
  m.f.params[0].type = Type::scalar(Scalar::I64);
  so.body = mk(std::move(m), so.body->types);
  bad.body = mk(LetE{l->vars, mk(std::move(so), seg->types), l->body},
                p.body->types);
  ds = verify_diagnostics(bad, "verify", only(true, false, false, false));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].check, "types");
  EXPECT_EQ(ds[0].path, "body.ys=.segmap^1.body.map");
  EXPECT_NE(ds[0].message.find("lambda parameter x"), std::string::npos);
}

TEST(Verify, LevelDisciplineViolationCaught) {
  // segmap^1 directly containing segmap^1: a level-l seg-op may directly
  // contain only level-(l-1) seg-ops.
  SegOpE inner;
  inner.op = SegOpE::Op::Map;
  inner.level = 1;
  inner.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner.body = add(var("x"), cf32(1));
  Program p = target_program(seg1(mk(std::move(inner))));
  p = typecheck_program(std::move(p));
  try {
    verify_program(p, "after pass 'tiling'");
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "levels");
    EXPECT_EQ(e.context(), "after pass 'tiling'");
  }
}

TEST(Verify, UnguardedIntraGroupVersionCaught) {
  // A level-1 seg-op whose body contains a level-0 seg-op over *parallel*
  // work is an intra-group version: running it requires the inner
  // parallelism to fit one workgroup, so reaching it without a
  // workgroup-fit guard means there is no feasible fallback arm.
  SegOpE inner;
  inner.op = SegOpE::Op::Map;
  inner.level = 0;
  inner.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner.body = segred0_over_xs();  // parallel body -> intra-group version
  Program p = target_program(seg1(mk(std::move(inner))));
  try {
    verify_program(p, "after pass 'incremental'",
                   only(false, false, true, false));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "guards");
    EXPECT_NE(std::string(e.what()).find("no feasible fallback arm"),
              std::string::npos);
  }
}

TEST(Verify, GuardWithoutFitBoundIsNoFallback) {
  // Guarding the intra-group version with a threshold comparison that does
  // NOT carry a workgroup-fit bound is still a violation: such a guard can
  // be taken on any device, so the intra-group arm has no feasibility
  // escape hatch.
  SegOpE inner;
  inner.op = SegOpE::Op::Map;
  inner.level = 0;
  inner.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner.body = segred0_over_xs();
  ExprP intra = seg1(mk(std::move(inner)));
  ExprP flat = seg1(add(cf32(0), cf32(0)));
  ExprP cmp = mk(ThresholdCmpE{"suff_intra_par_0",
                               SizeExpr::of(Dim::v("n")), SizeExpr{}});
  Program p = target_program(iff(cmp, intra, flat));
  EXPECT_THROW(verify_program(p, "verify", only(false, false, true, false)),
               VerifyError);

  // The same shape with the fit bound present is accepted.
  ExprP cmp_fit = mk(ThresholdCmpE{"suff_intra_par_0",
                                   SizeExpr::of(Dim::v("n")),
                                   SizeExpr::of(Dim::v("m"))});
  SegOpE inner2;
  inner2.op = SegOpE::Op::Map;
  inner2.level = 0;
  inner2.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner2.body = segred0_over_xs();
  Program ok = target_program(
      iff(cmp_fit, seg1(mk(std::move(inner2))), seg1(add(cf32(0), cf32(0)))));
  EXPECT_NO_THROW(
      verify_program(ok, "verify", only(false, false, true, false)));
}

TEST(Verify, ThresholdCmpOutsideIfConditionCaught) {
  ExprP cmp = mk(ThresholdCmpE{"suff_outer_par_0", SizeExpr::of(Dim::v("n")),
                               SizeExpr{}});
  Program p = target_program(let1("c", cmp, cf32(1)));
  try {
    verify_program(p, "verify", only(false, false, true, false));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "guards");
  }
}

TEST(Verify, ThresholdComparedByTwoGuardsCaught) {
  // Each threshold names one guard's tuning parameter; a second guard on
  // the same name would make the registry read off the guards list it
  // twice, and the two comparisons could not be tuned apart.
  auto guard = [](const char* t) {
    return mk(ThresholdCmpE{t, SizeExpr::of(Dim::v("n")), SizeExpr{}});
  };
  const ExprP inner = iff(guard("suff_outer_par_0"), cf32(1), cf32(2));
  Program p = target_program(iff(guard("suff_outer_par_0"), cf32(0), inner));
  try {
    verify_program(p, "verify", only(false, false, true, false));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "guards");
    EXPECT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].path, "body.else");
    EXPECT_NE(std::string(e.what()).find("compared by more than one guard"),
              std::string::npos);
  }
  // Distinct names verify.
  const ExprP other = iff(guard("suff_outer_par_1"), cf32(1), cf32(2));
  Program ok = target_program(iff(guard("suff_outer_par_0"), cf32(0), other));
  EXPECT_NO_THROW(
      verify_program(ok, "verify", only(false, false, true, false)));
}

TEST(Verify, GuardInsideSegOpCaught) {
  // Code versions are chosen on the host, before any launch: a guard
  // inside a kernel would split one launch's work on a tuning parameter,
  // which no plan tree node expresses.  The finding names the guard's path.
  const ExprP cmp = mk(ThresholdCmpE{"suff_outer_par_0",
                                     SizeExpr::of(Dim::v("m")), SizeExpr{}});
  const ExprP data_cond = lt(index(var("xs"), {ci64(0)}), cf32(0));
  Program p = target_program(
      seg1(iff(data_cond, iff(cmp, cf32(1), cf32(2)), cf32(3))));
  const std::vector<Diagnostic> ds =
      verify_diagnostics(p, "verify", only(false, false, true, false));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].check, "guards");
  EXPECT_EQ(ds[0].path, "body.segmap^1.body.then");
  EXPECT_NE(ds[0].message.find("inside a kernel"), std::string::npos);
  // The same guard on the host, choosing between two kernels, verifies.
  Program ok = target_program(iff(cmp, seg1(cf32(1)), seg1(cf32(2))));
  EXPECT_NO_THROW(
      verify_program(ok, "verify", only(false, false, true, false)));
}

TEST(Verify, DanglingSegBindingCaught) {
  // The space's source array "nowhere" is bound neither by an enclosing
  // binder nor by an outer level of the space.
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"x"}, {"nowhere"}, Dim::v("n")}};
  so.body = add(var("x"), cf32(1));
  Program p = target_program(mk(std::move(so)));
  try {
    verify_program(p, "after pass 'prune-segbinds'",
                   only(false, false, false, true));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "segbinds");
    EXPECT_EQ(e.context(), "after pass 'prune-segbinds'");
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
  }
}

TEST(Verify, SegSpaceArityMismatchCaught) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"x", "y"}, {"xss"}, Dim::v("n")}};
  so.body = var("x");
  Program p = target_program(mk(std::move(so)));
  try {
    verify_program(p, "verify", only(false, false, false, true));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "segbinds");
  }
}

TEST(Verify, DuplicateSegSpaceParamCaught) {
  // Two levels of the same space binding the same parameter name.
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"x"}, {"xss"}, Dim::v("n")},
              SegBind{{"x"}, {"x"}, Dim::v("m")}};
  so.body = var("x");
  Program p = target_program(mk(std::move(so)));
  EXPECT_THROW(verify_program(p, "verify", only(false, false, false, true)),
               VerifyError);
}

TEST(Verify, InnerBindingMayChainThroughOuterLevel) {
  // The legal chained shape G6 produces: level 2 binds xs from xss, the
  // deeper level binds x from xs.
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")},
              SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  so.body = add(var("x"), cf32(1));
  Program p = target_program(mk(std::move(so)));
  p = typecheck_program(std::move(p));
  EXPECT_NO_THROW(verify_program(p));
}

TEST(Verify, AllViolationsAreCollectedNotJustTheFirst) {
  // Two independent dangling seg bindings in separate seg-ops: the verifier
  // must report both findings in one throw, with distinct IR paths.
  SegOpE a;
  a.op = SegOpE::Op::Map;
  a.level = 1;
  a.space = {SegBind{{"x"}, {"nowhere1"}, Dim::v("n")}};
  a.body = add(var("x"), cf32(1));
  SegOpE b;
  b.op = SegOpE::Op::Map;
  b.level = 1;
  b.space = {SegBind{{"y"}, {"nowhere2"}, Dim::v("n")}};
  b.body = add(var("y"), cf32(2));
  Program p = target_program(tuple({mk(std::move(a)), mk(std::move(b))}));
  const std::vector<Diagnostic> ds =
      verify_diagnostics(p, "after pass 'prune-segbinds'",
                         only(false, false, false, true));
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_NE(ds[0].path, ds[1].path);
  for (const auto& d : ds) {
    EXPECT_EQ(d.check, "segbinds");
    EXPECT_EQ(d.severity, Severity::Error);
    EXPECT_EQ(d.context, "after pass 'prune-segbinds'");
    EXPECT_NE(d.message.find("dangling"), std::string::npos);
  }
  try {
    verify_program(p, "after pass 'prune-segbinds'",
                   only(false, false, false, true));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u);
    // what() advertises the extra findings beyond the first.
    EXPECT_NE(std::string(e.what()).find("more finding"), std::string::npos);
  }
}

TEST(Verify, CleanProgramYieldsNoDiagnostics) {
  Program p = target_program(
      seg1(redomap(binlam("+", Scalar::F32),
                   lam({ib::p("x", Type::scalar(Scalar::F32))}, var("x")),
                   {cf32(0)}, {var("xs")})));
  p = typecheck_program(std::move(p));
  EXPECT_TRUE(verify_diagnostics(p, "verify").empty());
}

TEST(Verify, SourceProgramsAreVacuouslyClean) {
  // Source programs contain no seg-ops and no thresholds, so every check
  // (beyond types) is vacuous — a verifier can run after any pass.
  Program p = target_program(map1(
      lam({ib::p("xs", Type())},
          reduce(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")})),
      var("xss")));
  p = typecheck_program(std::move(p));
  EXPECT_NO_THROW(verify_program(p, "after pass 'normalize'"));
}

}  // namespace
}  // namespace incflat
