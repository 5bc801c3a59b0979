// Tests for the static analysis layer (src/analysis/): interval arithmetic
// soundness (property-tested against concrete evaluation), def-use chains,
// guard decisions, the threshold registry read off a guard nest, the
// prune-segbinds bottom-up fix, and the lint catalogue.  Also a
// differential property on generated programs: every flattening mode
// computes the source program's values.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/lint.h"
#include "src/analysis/range.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/flatten/prune.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"
#include "src/ir/verify.h"
#include "src/support/diag.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

using namespace ib;
using analysis::AnalysisLimits;
using analysis::IntInterval;

// ---------------------------------------------------------------- intervals

TEST(Interval, Basics) {
  EXPECT_TRUE(IntInterval::top().is_top());
  EXPECT_TRUE(IntInterval::top().contains(-12345));
  EXPECT_TRUE(IntInterval::point(3).contains(3));
  EXPECT_FALSE(IntInterval::point(3).contains(4));
  EXPECT_TRUE(IntInterval::at_least(2).contains(1 << 30));
  EXPECT_FALSE(IntInterval::at_least(2).contains(1));
  EXPECT_EQ(interval_mul(IntInterval::range(2, 3), IntInterval::range(4, 5)),
            IntInterval::range(8, 15));
  EXPECT_EQ(interval_max(IntInterval::range(1, 10), IntInterval::range(5, 7)),
            IntInterval::range(5, 10));
  EXPECT_EQ(interval_min(IntInterval::range(1, 10), IntInterval::range(5, 7)),
            IntInterval::range(1, 7));
  EXPECT_EQ(interval_neg(IntInterval::range(-2, 5)), IntInterval::range(-5, 2));
}

IntInterval random_interval(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return IntInterval::top();
    case 1: return IntInterval::at_least(rng.uniform_int(-50, 50));
    case 2: return IntInterval::at_most(rng.uniform_int(-50, 50));
    default: {
      const int64_t lo = rng.uniform_int(-50, 50);
      return IntInterval::range(lo, lo + rng.uniform_int(0, 40));
    }
  }
}

int64_t sample_from(Rng& rng, const IntInterval& iv) {
  const int64_t lo = iv.lo_finite ? iv.lo : -60;
  const int64_t hi = iv.hi_finite ? iv.hi : 60;
  return rng.uniform_int(std::min(lo, hi), std::max(lo, hi));
}

TEST(Interval, ArithmeticIsSoundProperty) {
  Rng rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    const IntInterval A = random_interval(rng);
    const IntInterval B = random_interval(rng);
    const int64_t a = sample_from(rng, A);
    const int64_t b = sample_from(rng, B);
    if (!A.contains(a) || !B.contains(b)) continue;
    EXPECT_TRUE(interval_mul(A, B).contains(a * b)) << A.str() << B.str();
    EXPECT_TRUE(interval_min(A, B).contains(std::min(a, b)));
    EXPECT_TRUE(interval_max(A, B).contains(std::max(a, b)));
    EXPECT_TRUE(interval_neg(A).contains(-a));
  }
}

// --------------------------------------------------- symbolic size algebra

SizeProd prod_of(int64_t k, const std::vector<std::string>& vars) {
  SizeProd p;
  p.konst = k;
  for (const auto& v : vars) p *= Dim::v(v);
  return p;
}

TEST(SizeIntervals, MirrorEvalClamp) {
  SizeBounds bounds;
  bounds["n"] = SizeBound{4, 16};
  // Empty SizeExpr evaluates to 1 (the degenerate size); its interval is
  // the point 1.
  EXPECT_EQ(analysis::interval_of(SizeExpr{}, bounds), IntInterval::point(1));
  const SizeExpr n = SizeExpr::of(Dim::v("n"));
  EXPECT_EQ(analysis::interval_of(n, bounds), IntInterval::range(4, 16));
  // Undeclared variables default to [1, inf).
  const IntInterval m = analysis::interval_of(SizeExpr::of(Dim::v("m")),
                                              bounds);
  EXPECT_TRUE(m.lo_finite);
  EXPECT_EQ(m.lo, 1);
  EXPECT_FALSE(m.hi_finite);
  // Products multiply the per-variable ranges.
  const SizeExpr nn = n.times(prod_of(2, {"n"}));
  EXPECT_EQ(analysis::interval_of(nn, bounds), IntInterval::range(32, 512));
}

// ------------------------------------------------- dataflow: def-use chains

TEST(DefUse, CountsUsesAndFindsDeadBindings) {
  Program p;
  p.name = "defuse";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = let1("live", add(cf32(1), cf32(2)),
                let1("dead", mul(cf32(3), cf32(4)),
                     add(var("live"), index(var("xs"), {ci64(0)}))));
  p = typecheck_program(std::move(p));
  const analysis::DefUse du = analysis::def_use(p);
  EXPECT_EQ(du.defs.at("live").uses, 1);
  EXPECT_EQ(du.defs.at("dead").uses, 0);
  EXPECT_EQ(du.defs.at("xs").uses, 1);
  const auto dead = analysis::dead_defs(du);
  EXPECT_NE(std::find(dead.begin(), dead.end(), "dead"), dead.end());
  // Inputs with zero uses are interface, not dead code.
  EXPECT_EQ(std::find(dead.begin(), dead.end(), "xs"), dead.end());
}

// ------------------------------------- flattening on generated programs

/// Random closed integer-scalar program generator over size variable `n`.
/// Exercises constants, arithmetic, if, let, loop, iota/index, map and
/// reduce — each with I64 element type so source and target values compare
/// exactly — plus a two-level map/reduce nest whose flattening emits
/// threshold guards.
struct ProgGen {
  Rng& rng;
  NameGen names;
  std::vector<std::string> scope;  // bound scalar variables

  ExprP leaf() {
    const int64_t c = rng.uniform_int(0, 4);
    if (c == 0) return var("n");
    if (c == 1 && !scope.empty()) {
      return var(scope[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(scope.size()) - 1))]);
    }
    return ci64(rng.uniform_int(-5, 10));
  }

  ExprP gen(int depth) {  // NOLINT(misc-no-recursion)
    if (depth <= 0) return leaf();
    switch (rng.uniform_int(0, 10)) {
      case 0: return add(gen(depth - 1), gen(depth - 1));
      case 1: return sub(gen(depth - 1), gen(depth - 1));
      case 2: return min_(gen(depth - 1), gen(depth - 1));
      case 3: return max_(gen(depth - 1), gen(depth - 1));
      case 4:
        return iff(le(gen(depth - 1), gen(depth - 1)), gen(depth - 1),
                   gen(depth - 1));
      case 5: {
        const std::string v = names.fresh("x");
        ExprP rhs = gen(depth - 1);
        scope.push_back(v);
        ExprP body = gen(depth - 1);
        scope.pop_back();
        return let1(v, std::move(rhs), std::move(body));
      }
      case 6: {
        // loop acc = init for i < n: acc + small
        const std::string acc = names.fresh("acc");
        const std::string iv = names.fresh("i");
        ExprP init = gen(depth - 1);
        scope.push_back(acc);
        scope.push_back(iv);
        ExprP body = add(var(acc), gen(0));
        scope.pop_back();
        scope.pop_back();
        return loop({acc}, {std::move(init)}, iv, var("n"), std::move(body));
      }
      case 7:
        // sum over iota(n)
        return reduce(binlam("+", Scalar::I64), {ci64(0)},
                      {iota(Dim::v("n"))});
      case 8: {
        // index into a mapped iota (exercises Map's elementwise
        // abstraction and Index).
        const std::string x = names.fresh("e");
        scope.push_back(x);
        ExprP f = add(var(x), gen(0));
        scope.pop_back();
        return index(map1(lam({ib::p(x, Type::scalar(Scalar::I64))},
                             std::move(f)),
                          iota(Dim::v("n"))),
                     {ci64(0)});
      }
      case 9: {
        // map (\x -> reduce (+) 0 (map (\y -> x + y + c) (iota n))) (iota n),
        // indexed at 0, with the inner map written inline as the reduce
        // operand or let-bound as t.
        const std::string x = names.fresh("x");
        const std::string y = names.fresh("y");
        const std::string t = names.fresh("t");
        const Type i64 = Type::scalar(Scalar::I64);
        ExprP inner =
            map1(lam({ib::p(y, i64)}, add(add(var(x), var(y)), gen(0))),
                 iota(Dim::v("n")));
        auto sum = [](ExprP xs) {
          return reduce(binlam("+", Scalar::I64), {ci64(0)}, {std::move(xs)});
        };
        ExprP row = rng.uniform_int(0, 1)
                        ? sum(std::move(inner))
                        : let1(t, std::move(inner), sum(var(t)));
        return index(map1(lam({ib::p(x, i64)}, std::move(row)),
                          iota(Dim::v("n"))),
                     {ci64(0)});
      }
      default: return leaf();
    }
  }
};

TEST(GeneratedPrograms, FlatteningPreservesValuesProperty) {
  // Every mode's target program computes the source's value for random
  // sizes, power-of-two thresholds and device, and prices to a finite,
  // non-negative time (0 for scalar-only programs: no kernel launches).
  // Its guards pass the verifier's guards check (none inside a kernel),
  // and plan guard i is registry entry i.
  Rng rng(101);
  int guarded = 0;
  for (int iter = 0; iter < 40; ++iter) {
    ProgGen gen{rng, {}, {}};
    Program p;
    p.name = "random";
    p.extra_sizes = {"n"};
    p.size_bounds["n"] = SizeBound{2, 40};
    p.body = let1("result", gen.gen(3), var("result"));
    p = typecheck_program(std::move(p));

    for (const FlattenMode mode : {FlattenMode::Moderate,
                                   FlattenMode::Incremental,
                                   FlattenMode::Full}) {
      const Compiled c = compile(p, mode);
      if (!c.flat.thresholds.empty()) ++guarded;
      const VerifyOptions guards_only{
          .types = false, .levels = false, .segbinds = false};
      EXPECT_TRUE(verify_diagnostics(c.flat.program, "generated", guards_only)
                      .empty())
          << pretty(c.flat.program);
      const auto& reg = c.flat.thresholds.all();
      ASSERT_EQ(c.plan->guards.size(), reg.size()) << pretty(p);
      for (size_t i = 0; i < reg.size(); ++i) {
        EXPECT_EQ(c.plan->guards[i].threshold, reg[i].name) << pretty(p);
        EXPECT_EQ(c.plan->guards[i].par, reg[i].par) << pretty(p);
        EXPECT_EQ(c.plan->guards[i].fit, reg[i].fit) << pretty(p);
      }
      const SizeEnv sizes{{"n", rng.uniform_int(2, 40)}};
      ThresholdEnv te;
      for (const auto& ti : c.flat.thresholds.all()) {
        te.values[ti.name] = int64_t{1} << rng.uniform_int(0, 12);
      }
      const DeviceProfile dev =
          rng.uniform_int(0, 1) ? device_k40() : device_vega64();
      const Values want = execute_source(c, sizes, {});
      const Values got = execute(dev, c, sizes, te, {});
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].approx_equal(want[i], 0))
            << mode_name(mode) << " n=" << sizes.at("n") << " on "
            << dev.name << ": " << got[i].str() << " != " << want[i].str()
            << "\n" << pretty(p);
      }
      const RunEstimate est = simulate(dev, c, sizes, te);
      EXPECT_TRUE(std::isfinite(est.time_us)) << pretty(p);
      EXPECT_GE(est.time_us, 0.0) << pretty(p);
    }
  }
  // The two-level nest must reach the guarded versions.
  EXPECT_GT(guarded, 0);
}

// ----------------------------------------------------------- guard decisions

ThresholdCmpE guard(const std::string& t, SizeExpr par, SizeExpr fit) {
  return ThresholdCmpE{t, std::move(par), std::move(fit)};
}

TEST(DecideGuard, FitInfeasibilityF1) {
  SizeBounds bounds;
  bounds["np"] = SizeBound{256, -1};
  bounds["ns"] = SizeBound{8, -1};
  const SizeExpr fit = SizeExpr::of(prod_of(1, {"np", "ns"}));
  const ThresholdCmpE tc =
      guard("t0", SizeExpr::of(Dim::v("np")), fit);
  AnalysisLimits k40{1024, 48 * 1024};
  EXPECT_TRUE(analysis::guard_never_taken(tc, k40, bounds));
  // Without the bounds the fit's lower bound is 1: undecidable.
  EXPECT_FALSE(analysis::guard_never_taken(tc, k40, {}));
  // Without device limits nothing device-dependent is decided.
  EXPECT_FALSE(analysis::guard_never_taken(tc, {}, bounds));
}

TEST(DecideGuard, ThresholdAloneIsNeverDecided) {
  // A fit-less guard compares against a *free tuning parameter*: both
  // branches stay reachable no matter the bounds.
  SizeBounds bounds;
  bounds["n"] = SizeBound{1 << 20, 1 << 20};
  const ThresholdCmpE tc = guard("t0", SizeExpr::of(Dim::v("n")), SizeExpr{});
  EXPECT_FALSE(analysis::guard_never_taken(tc, {1024, 48 * 1024}, bounds));
}

TEST(DecideGuard, DecisionsMatchConcreteEvaluationProperty) {
  const std::vector<std::string> names = {"a", "b"};
  Rng rng(17);
  int decided = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    SizeBounds bounds;
    for (const auto& v : names) {
      const int64_t lo = rng.uniform_int(1, 64);
      bounds[v] = rng.uniform_int(0, 1)
                      ? SizeBound{lo, -1}
                      : SizeBound{lo, lo * rng.uniform_int(1, 4)};
    }
    auto rand_expr = [&](bool maybe_empty) {
      if (maybe_empty && rng.uniform_int(0, 3) == 0) return SizeExpr{};
      std::vector<std::string> vs;
      for (const auto& v : names) {
        for (int64_t r = rng.uniform_int(0, 2); r > 0; --r) vs.push_back(v);
      }
      return SizeExpr::of(prod_of(rng.uniform_int(1, 4), vs));
    };
    const ThresholdCmpE tc =
        guard("t", rand_expr(false), rand_expr(true));
    const AnalysisLimits lim{rng.uniform_int(16, 2048), 48 * 1024};
    if (!analysis::guard_never_taken(tc, lim, bounds)) continue;
    ++decided;
    for (int s = 0; s < 8; ++s) {
      SizeEnv env;
      for (const auto& v : names) {
        const SizeBound& sb = bounds[v];
        env[v] = rng.uniform_int(sb.lo,
                                 sb.bounded_above() ? sb.hi : sb.lo + 100);
      }
      const int64_t t = rng.uniform_int(1, 1 << 20);
      const bool taken =
          tc.par.eval(env) >= t &&
          (tc.fit.alts.empty() || tc.fit.eval(env) <= lim.max_group_size);
      EXPECT_FALSE(taken) << "par=" << tc.par.str() << " fit=" << tc.fit.str();
    }
  }
  EXPECT_GT(decided, 20);
}

// ------------------------------------------------------------- local mem

ExprP seg1_body(ExprP body) {
  SegOpE so;
  so.op = SegOpE::Op::Map;
  so.level = 1;
  so.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  so.body = std::move(body);
  return mk(std::move(so));
}

ExprP segred0() {
  SegOpE so;
  so.op = SegOpE::Op::Red;
  so.level = 0;
  so.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  so.combine = binlam("+", Scalar::F32);
  so.neutral = {cf32(0)};
  so.body = var("x");
  return mk(std::move(so));
}

TEST(SymbolicFacts, LocalMemOfIntraGroupNest) {
  Program p;
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  p.body = seg1_body(segred0());
  p = typecheck_program(std::move(p));
  SizeEnv env{{"n", 10}, {"m", 7}};
  // Local footprint mirrors the cost model: 2 * m points * 4 bytes (f32).
  EXPECT_EQ(analysis::local_mem_of(p.body).eval(env), 2 * 7 * 4);
  // A level-1 nest with a sequential body has no local footprint.
  Program q;
  q.inputs = p.inputs;
  q.body = seg1_body(redomap(binlam("+", Scalar::F32),
                             lam({ib::p("x", Type::scalar(Scalar::F32))},
                                 var("x")),
                             {cf32(0)}, {var("xs")}));
  q = typecheck_program(std::move(q));
  EXPECT_TRUE(analysis::local_mem_of(q.body).alts.empty());
}

// ------------------------------------------------------ prune-segbinds fix

TEST(Prune, NestedOrphanRemovedInOnePass) {
  // Outer binding `xs` is referenced only as the source array of the inner
  // seg-op's binding `x`, and `x` itself is dead.  Bottom-up pruning must
  // remove both in a single run.
  SegOpE inner;
  inner.op = SegOpE::Op::Map;
  inner.level = 0;
  inner.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
  inner.body = cf32(1);  // x unused
  SegOpE outer;
  outer.op = SegOpE::Op::Map;
  outer.level = 1;
  outer.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  outer.body = mk(std::move(inner));
  const ExprP pruned = prune_seg_spaces(mk(std::move(outer)));
  const auto* out = pruned->as<SegOpE>();
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->space.size(), 1u);
  EXPECT_TRUE(out->space[0].params.empty()) << pretty(pruned);
  const auto* in = out->body->as<SegOpE>();
  ASSERT_NE(in, nullptr);
  EXPECT_TRUE(in->space[0].params.empty()) << pretty(pruned);
}

TEST(Prune, Idempotent) {
  Rng rng(23);
  // Idempotence on a shape that mixes live and dead bindings at two levels.
  SegOpE inner;
  inner.op = SegOpE::Op::Map;
  inner.level = 0;
  inner.space = {SegBind{{"x", "y"}, {"xs", "ys"}, Dim::v("m")}};
  inner.body = add(var("x"), cf32(1));  // y dead
  SegOpE outer;
  outer.op = SegOpE::Op::Map;
  outer.level = 1;
  outer.space = {SegBind{{"xs", "ys"}, {"xss", "yss"}, Dim::v("n")}};
  outer.body = mk(std::move(inner));
  const ExprP once = prune_seg_spaces(mk(std::move(outer)));
  const ExprP twice = prune_seg_spaces(once);
  EXPECT_EQ(pretty(once), pretty(twice));
  // ys/y are gone, xs/x stay.
  const auto* out = once->as<SegOpE>();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->space[0].params, std::vector<std::string>{"xs"});
}

// ------------------------------------------------------- threshold registry

TEST(Registry, ReadOffTheGuardNestInPreOrder) {
  //   if t0 then (if t1 then 1 else 2)
  //   else if t2 then (if t3 then 3 else 4)
  //        else (if t4 then 5 else 6)
  const SizeExpr n = SizeExpr::of(Dim::v("n"));
  const SizeExpr m = SizeExpr::of(Dim::v("m"));
  const SizeExpr nm = SizeExpr::of(prod_of(1, {"n", "m"}));
  auto g = [](const char* t, const SizeExpr& par, const SizeExpr& fit) {
    return mk(guard(t, par, fit));
  };
  Program p;
  p.name = "nest";
  p.body = iff(g("t0", n, SizeExpr{}),
               iff(g("t1", nm, n), cf32(1), cf32(2)),
               iff(g("t2", m, m), iff(g("t3", m, SizeExpr{}), cf32(3), cf32(4)),
                   iff(g("t4", nm, SizeExpr{}), cf32(5), cf32(6))));
  auto names = [](const ThresholdRegistry& reg) {
    std::vector<std::string> out;
    for (const auto& ti : reg.all()) out.push_back(ti.name);
    return out;
  };

  const ThresholdRegistry reg(p.body);
  ASSERT_EQ(names(reg),
            (std::vector<std::string>{"t0", "t1", "t2", "t3", "t4"}));
  const std::vector<ThresholdInfo>& all = reg.all();
  EXPECT_EQ(all[0].path, GuardPath{});
  EXPECT_EQ(all[1].path, (GuardPath{{"t0", true}}));
  EXPECT_EQ(all[2].path, (GuardPath{{"t0", false}}));
  EXPECT_EQ(all[3].path, (GuardPath{{"t0", false}, {"t2", true}}));
  EXPECT_EQ(all[4].path, (GuardPath{{"t0", false}, {"t2", false}}));
  // par and fit are the guard's own.
  EXPECT_EQ(all[1].par, nm);
  EXPECT_EQ(all[1].fit, n);
  EXPECT_EQ(all[2].par, m);
  EXPECT_EQ(all[2].fit, m);
  EXPECT_TRUE(all[4].fit.alts.empty());
}

// ------------------------------------------------------------------- lint

/// A two-version target program whose intra-group arm requires fit = m:
/// `if (m >= t && fit m) then intra else flat` where both arms compute the
/// per-row sums of xss.
Program guarded_program() {
  Program p;
  p.name = "guarded";
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  ExprP cmp = mk(ThresholdCmpE{"suff_intra_par_0", SizeExpr::of(Dim::v("m")),
                               SizeExpr::of(Dim::v("m"))});
  ExprP intra = seg1_body(segred0());
  ExprP flat = seg1_body(redomap(binlam("+", Scalar::F32),
                                 lam({ib::p("x", Type::scalar(Scalar::F32))},
                                     var("x")),
                                 {cf32(0)}, {var("xs")}));
  p.body = iff(std::move(cmp), std::move(intra), std::move(flat));
  return typecheck_program(std::move(p));
}

TEST(Lint, FindsDeadVersionAndDeadBinding) {
  Program p = guarded_program();
  p.size_bounds["m"] = SizeBound{4, -1};
  // A dead let binding.
  p.body = let1("unused", cf32(0), p.body);
  p = typecheck_program(std::move(p));

  analysis::LintOptions lopts;
  lopts.limits = AnalysisLimits{2, 1024};
  lopts.device_name = "tiny";
  const std::vector<Diagnostic> ds = analysis::lint_program(p, lopts);
  auto has = [&](const std::string& check) {
    for (const auto& d : ds) {
      if (d.check == check) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("dead-version"));
  EXPECT_TRUE(has("dead-binding"));
  EXPECT_EQ(count_at_least(ds, Severity::Error), 0);
  EXPECT_GE(count_at_least(ds, Severity::Warning), 1);
}

TEST(Lint, FlagsStaticallyOverflowingLocalMemory) {
  Program p;
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  p.body = seg1_body(segred0());
  p.size_bounds["m"] = SizeBound{1 << 16, -1};  // >= 512 KiB of scratchpad
  p = typecheck_program(std::move(p));
  analysis::LintOptions lopts;
  lopts.limits = AnalysisLimits{1 << 20, 48 * 1024};
  const std::vector<Diagnostic> ds =
      analysis::lint_program(p, lopts);
  ASSERT_EQ(count_at_least(ds, Severity::Error), 1);
  EXPECT_EQ(ds[0].check, "local-mem-overflow");
  EXPECT_NE(ds[0].path.find("segmap^1"), std::string::npos) << ds[0].path;
}

TEST(Lint, BenchsuiteProgramsHaveNoErrorFindings) {
  // The catalogue's only error severity is local-mem-overflow; no shipped
  // benchmark statically overflows either device profile.
  for (const auto& dev : {device_k40(), device_vega64()}) {
    analysis::LintOptions lopts;
    lopts.limits = analysis::limits_for(dev);
    lopts.device_name = dev.name;
    for (const auto& name : all_benchmark_names()) {
      const Benchmark b = get_benchmark(name);
      const Compiled c = compile(b.program, FlattenMode::Incremental);
      const std::vector<Diagnostic> ds =
          analysis::lint_program(c.flat.program, lopts);
      EXPECT_EQ(count_at_least(ds, Severity::Error), 0)
          << name << " on " << dev.name << "\n" << diagnostics_str(ds);
    }
  }
}

// ------------------------------------------------------------- diagnostics

TEST(Diagnostics, TextAndJsonRendering) {
  const Diagnostic d{Severity::Warning, "dead-version", "lint",
                     "body.then", "one arm is dead"};
  EXPECT_EQ(d.str(),
            "warning[dead-version] at body.then: one arm is dead");
  const Json j = d.to_json();
  EXPECT_EQ(j.get("severity").as_string(), "warning");
  EXPECT_EQ(j.get("check").as_string(), "dead-version");
  EXPECT_EQ(j.get("path").as_string(), "body.then");
  const std::vector<Diagnostic> ds = {
      d, Diagnostic{Severity::Error, "types", "after pass 'normalize'", "",
                    "boom"}};
  EXPECT_EQ(count_at_least(ds, Severity::Error), 1);
  EXPECT_EQ(count_at_least(ds, Severity::Warning), 2);
  EXPECT_EQ(diagnostics_json(ds).size(), 2u);
}

}  // namespace
}  // namespace incflat
