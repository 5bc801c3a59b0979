#include "src/analysis/range.h"

#include <algorithm>
#include <limits>

#include "src/support/error.h"

namespace incflat {
namespace analysis {

namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

int64_t sat_add(int64_t a, int64_t b) {
  if (a > 0 && b > kMax - a) return kMax;
  if (a < 0 && b < kMin - a) return kMin;
  return a + b;
}

int64_t sat_mul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kMin || b == kMin) return (a > 0) == (b > 0) ? kMax : kMin;
  const int64_t hi = kMax / (a < 0 ? -a : a);
  if ((b < 0 ? -b : b) > hi) return (a > 0) == (b > 0) ? kMax : kMin;
  return a * b;
}

/// Saturated bounds are indistinguishable from overflow — report them open.
IntInterval desaturate(IntInterval v) {
  if (v.lo_finite && v.lo == kMin) v.lo_finite = false;
  if (v.hi_finite && v.hi == kMax) v.hi_finite = false;
  return v;
}

}  // namespace

std::string IntInterval::str() const {
  std::string s = lo_finite ? "[" + std::to_string(lo) : "(-inf";
  s += ", ";
  s += hi_finite ? std::to_string(hi) + "]" : "+inf)";
  return s;
}

IntInterval interval_join(const IntInterval& a, const IntInterval& b) {
  IntInterval out;
  out.lo_finite = a.lo_finite && b.lo_finite;
  out.hi_finite = a.hi_finite && b.hi_finite;
  if (out.lo_finite) out.lo = std::min(a.lo, b.lo);
  if (out.hi_finite) out.hi = std::max(a.hi, b.hi);
  return out;
}

bool interval_leq(const IntInterval& a, const IntInterval& b) {
  if (b.lo_finite && (!a.lo_finite || a.lo < b.lo)) return false;
  if (b.hi_finite && (!a.hi_finite || a.hi > b.hi)) return false;
  return true;
}

IntInterval interval_widen(const IntInterval& old, const IntInterval& next) {
  IntInterval out = next;
  if (!old.lo_finite || (next.lo_finite && next.lo < old.lo)) {
    out.lo_finite = false;
  } else {
    out.lo_finite = old.lo_finite;
    out.lo = old.lo;
  }
  if (!old.hi_finite || (next.hi_finite && next.hi > old.hi)) {
    out.hi_finite = false;
  } else {
    out.hi_finite = old.hi_finite;
    out.hi = old.hi;
  }
  return out;
}

IntInterval interval_add(const IntInterval& a, const IntInterval& b) {
  IntInterval out;
  out.lo_finite = a.lo_finite && b.lo_finite;
  out.hi_finite = a.hi_finite && b.hi_finite;
  if (out.lo_finite) out.lo = sat_add(a.lo, b.lo);
  if (out.hi_finite) out.hi = sat_add(a.hi, b.hi);
  return desaturate(out);
}

IntInterval interval_neg(const IntInterval& a) {
  IntInterval out;
  out.lo_finite = a.hi_finite;
  out.hi_finite = a.lo_finite;
  if (out.lo_finite) out.lo = a.hi == kMin ? kMax : -a.hi;
  if (out.hi_finite) out.hi = a.lo == kMin ? kMax : -a.lo;
  return desaturate(out);
}

IntInterval interval_sub(const IntInterval& a, const IntInterval& b) {
  return interval_add(a, interval_neg(b));
}

IntInterval interval_mul(const IntInterval& a, const IntInterval& b) {
  // With open ends, the product of bound candidates only works when both
  // sides are fully finite; otherwise reason by sign.
  if (a.lo_finite && a.hi_finite && b.lo_finite && b.hi_finite) {
    const int64_t c[4] = {sat_mul(a.lo, b.lo), sat_mul(a.lo, b.hi),
                          sat_mul(a.hi, b.lo), sat_mul(a.hi, b.hi)};
    IntInterval out;
    out.lo_finite = out.hi_finite = true;
    out.lo = *std::min_element(c, c + 4);
    out.hi = *std::max_element(c, c + 4);
    return desaturate(out);
  }
  // Both sides non-negative: lower bound survives even with open tops.
  if (a.lo_finite && a.lo >= 0 && b.lo_finite && b.lo >= 0) {
    IntInterval out = IntInterval::at_least(sat_mul(a.lo, b.lo));
    if (a.hi_finite && b.hi_finite) {
      out.hi_finite = true;
      out.hi = sat_mul(a.hi, b.hi);
    }
    return desaturate(out);
  }
  return IntInterval::top();
}

IntInterval interval_min(const IntInterval& a, const IntInterval& b) {
  IntInterval out;
  out.lo_finite = a.lo_finite && b.lo_finite;
  if (out.lo_finite) out.lo = std::min(a.lo, b.lo);
  out.hi_finite = a.hi_finite || b.hi_finite;
  if (out.hi_finite) {
    out.hi = a.hi_finite && b.hi_finite ? std::min(a.hi, b.hi)
                                        : (a.hi_finite ? a.hi : b.hi);
  }
  return out;
}

IntInterval interval_max(const IntInterval& a, const IntInterval& b) {
  return interval_neg(interval_min(interval_neg(a), interval_neg(b)));
}

// ---------------------------------------------------------------------------

IntInterval size_var_interval(const std::string& name, const SizeBounds& b) {
  auto it = b.find(name);
  if (it == b.end()) return IntInterval::at_least(1);
  IntInterval out = IntInterval::at_least(std::max<int64_t>(1, it->second.lo));
  if (it->second.bounded_above()) {
    out.hi_finite = true;
    out.hi = std::max(it->second.hi, out.lo);
  }
  return out;
}

IntInterval interval_of(const SizeProd& p, const SizeBounds& b) {
  IntInterval out = IntInterval::point(p.konst);
  for (const auto& d : p.vars) {
    out = interval_mul(out, size_var_interval(d.var, b));
  }
  return out;
}

IntInterval interval_of(const SizeExpr& e, const SizeBounds& b) {
  // SizeExpr::eval is max(1, max over alts) — mirror the clamp exactly.
  IntInterval out = IntInterval::point(1);
  for (const auto& alt : e.alts) {
    out = interval_max(out, interval_of(alt, b));
  }
  return out;
}

bool prod_leq(const SizeProd& p, const SizeProd& q, const SizeBounds& b) {
  // q's variable multiset must cover p's; the leftover variables' lower
  // bounds (each >= 1) plus the constants must absorb p's constant:
  //   p = kp * Πv,  q = kq * Πv * Πextra  >=  kq * Πlo(extra) * Πv.
  std::vector<std::string> pv, qv;
  for (const auto& d : p.vars) pv.push_back(d.var);
  for (const auto& d : q.vars) qv.push_back(d.var);
  std::sort(pv.begin(), pv.end());
  std::sort(qv.begin(), qv.end());
  int64_t slack = q.konst;
  size_t i = 0;
  for (const auto& v : qv) {
    if (i < pv.size() && pv[i] == v) {
      ++i;
    } else {
      const IntInterval vi = size_var_interval(v, b);
      slack = sat_mul(slack, vi.lo_finite ? vi.lo : 1);
    }
  }
  if (i < pv.size()) return false;  // p has a variable q lacks
  return p.konst <= slack;
}

bool expr_leq(const SizeExpr& a, const SizeExpr& b, const SizeBounds& b_env) {
  const std::vector<SizeProd> one{SizeProd::one()};
  const auto& alts_a = a.alts.empty() ? one : a.alts;
  const auto& alts_b = b.alts.empty() ? one : b.alts;
  bool all = true;
  for (const auto& pa : alts_a) {
    bool dominated = false;
    for (const auto& pb : alts_b) {
      if (prod_leq(pa, pb, b_env)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      all = false;
      break;
    }
  }
  if (all) return true;
  // Fallback: the concrete intervals may already separate the expressions.
  const IntInterval ia = interval_of(a, b_env);
  const IntInterval ib = interval_of(b, b_env);
  return ia.hi_finite && ib.lo_finite && ia.hi <= ib.lo;
}

// ---------------------------------------------------------------------------

AnalysisLimits limits_for(const DeviceProfile& dev) {
  AnalysisLimits lim;
  lim.max_group_size = dev.max_group_size;
  lim.local_mem_bytes = dev.local_mem_bytes;
  return lim;
}

const char* guard_decision_name(GuardDecision d) {
  switch (d) {
    case GuardDecision::AlwaysTrue: return "always-true";
    case GuardDecision::AlwaysFalse: return "always-false";
    case GuardDecision::Unknown: return "unknown";
  }
  return "?";
}

namespace {

/// The fit conjunct `fit <= max_group_size` is vacuously true for every
/// in-bounds assignment (or there is no fit bound at all).
bool fit_always_ok(const SizeExpr& fit, const AnalysisLimits& lim,
                   const SizeBounds& bounds) {
  if (fit.alts.empty()) return true;
  if (lim.max_group_size < 0) return false;
  const IntInterval fi = interval_of(fit, bounds);
  return fi.hi_finite && fi.hi <= lim.max_group_size;
}

}  // namespace

GuardDecision decide_guard(const ThresholdCmpE& tc, const AnalysisLimits& lim,
                           const SizeBounds& bounds, const GuardFacts& facts) {
  // Device infeasibility: the fit bound's lower bound already exceeds the
  // workgroup limit, so the intra-group version can never be selected.
  if (!tc.fit.alts.empty() && lim.max_group_size >= 0) {
    const IntInterval fi = interval_of(tc.fit, bounds);
    if (fi.lo_finite && fi.lo > lim.max_group_size) {
      return GuardDecision::AlwaysFalse;
    }
  }
  // Dominance by enclosing guards over the same threshold parameter.  The
  // threshold's value t is shared, so one observed comparison constrains t
  // relative to its par.
  auto it = facts.find(tc.threshold);
  if (it != facts.end()) {
    for (const GuardFact& f : it->second) {
      if (f.taken) {
        // f.par >= t and f's fit passed.  If our par dominates f's and our
        // fit is implied, the comparison repeats an established truth.
        const bool par_ok = expr_leq(f.par, tc.par, bounds);
        const bool fit_ok =
            fit_always_ok(tc.fit, lim, bounds) ||
            (!f.fit.alts.empty() && expr_leq(tc.fit, f.fit, bounds));
        if (par_ok && fit_ok) return GuardDecision::AlwaysTrue;
      } else {
        // !(f.par >= t && f's fit ok).  Only if f's fit conjunct could not
        // have been the failing part do we learn f.par < t.
        if (fit_always_ok(f.fit, lim, bounds) &&
            expr_leq(tc.par, f.par, bounds)) {
          return GuardDecision::AlwaysFalse;  // tc.par <= f.par < t
        }
      }
    }
  }
  return GuardDecision::Unknown;
}

// ---------------------------------------------------------------------------
// RangeDomain transfer functions.

IntInterval RangeDomain::constant(const ConstE& c) const {
  switch (c.tag) {
    case Scalar::I32:
    case Scalar::I64:
    case Scalar::Bool:
      return IntInterval::point(c.i);
    default:
      return IntInterval::top();  // float payloads are not tracked
  }
}

IntInterval RangeDomain::binop(const std::string& op, const IntInterval& a,
                               const IntInterval& b) const {
  if (op == "+") return interval_add(a, b);
  if (op == "-") return interval_sub(a, b);
  if (op == "*") return interval_mul(a, b);
  if (op == "min") return interval_min(a, b);
  if (op == "max") return interval_max(a, b);
  if (op == "/") {
    // Conservative: only the easy all-positive case.
    if (a.lo_finite && a.lo >= 0 && b.lo_finite && b.lo >= 1) {
      IntInterval out = IntInterval::at_least(0);
      if (a.hi_finite) {
        out.hi_finite = true;
        out.hi = a.hi / b.lo;
      }
      return out;
    }
    return IntInterval::top();
  }
  if (op == "<" || op == "<=" || op == "==" || op == "&&" || op == "||") {
    return IntInterval::range(0, 1);
  }
  return IntInterval::top();  // "pow" and anything unrecognised
}

IntInterval RangeDomain::unop(const std::string& op,
                              const IntInterval& a) const {
  if (op == "neg") return interval_neg(a);
  if (op == "!") return IntInterval::range(0, 1);
  if (op == "abs") {
    if (a.lo_finite && a.lo >= 0) return a;
    IntInterval out = IntInterval::at_least(0);
    if (a.lo_finite && a.hi_finite) {
      out.hi_finite = true;
      out.hi = std::max(a.lo == kMin ? kMax : -a.lo, a.hi);
    }
    return desaturate(out);
  }
  if (op == "i2f") return a;  // value-preserving for tracked (integer) inputs
  if (op == "f2i") {
    // Truncation toward zero moves the value by strictly less than 1.
    IntInterval out = a;
    if (out.lo_finite) out.lo = sat_add(out.lo, -1);
    if (out.hi_finite) out.hi = sat_add(out.hi, 1);
    return desaturate(out);
  }
  return IntInterval::top();  // exp/log/sqrt: float-valued
}

IntInterval RangeDomain::input(const Param&) const {
  return IntInterval::top();  // input data is unconstrained
}

IntInterval RangeDomain::dim(const Dim& d) const {
  return d.is_const() ? IntInterval::point(d.cval) : size_var(d.var);
}

IntInterval RangeDomain::iota_elem(const Dim& count) const {
  const IntInterval c = dim(count);
  IntInterval out = IntInterval::at_least(0);
  if (c.hi_finite) {
    out.hi_finite = true;
    out.hi = std::max<int64_t>(0, sat_add(c.hi, -1));
  }
  return out;
}

IntInterval RangeDomain::loop_index(const IntInterval& count) const {
  IntInterval out = IntInterval::at_least(0);
  if (count.hi_finite) {
    out.hi_finite = true;
    out.hi = std::max<int64_t>(0, sat_add(count.hi, -1));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Par degrees and local-memory footprints.

namespace {

SizeProd space_prod(const SegSpace& space) {
  SizeProd p;
  for (const auto& b : space) p *= b.dim;
  return p;
}

void par_walk(const ExprP& e, SizeExpr& acc);  // NOLINT(misc-no-recursion)

void par_walk_all(const std::vector<ExprP>& es, SizeExpr& acc) {
  for (const auto& x : es) par_walk(x, acc);
}

void par_walk(const ExprP& e, SizeExpr& acc) {
  if (!e) return;
  if (auto* so = e->as<SegOpE>()) {
    SizeExpr inner;
    par_walk(so->body, inner);
    const SizeProd mine = space_prod(so->space);
    const SizeExpr exposed = inner.alts.empty()
                                 ? SizeExpr::of(mine)
                                 : inner.times(mine);
    acc = acc.max_with(exposed);
    // Sequential SOACs inside the body were already covered by the walk;
    // neutral elements run per segment, sequentially.
    return;
  }
  if (auto* b = e->as<BinOpE>()) {
    par_walk(b->lhs, acc);
    par_walk(b->rhs, acc);
  } else if (auto* u = e->as<UnOpE>()) {
    par_walk(u->e, acc);
  } else if (auto* i = e->as<IfE>()) {
    par_walk(i->then_e, acc);
    par_walk(i->else_e, acc);
  } else if (auto* l = e->as<LetE>()) {
    par_walk(l->rhs, acc);
    par_walk(l->body, acc);
  } else if (auto* lp = e->as<LoopE>()) {
    par_walk_all(lp->inits, acc);
    par_walk(lp->body, acc);
  } else if (auto* t = e->as<TupleE>()) {
    par_walk_all(t->elems, acc);
  } else if (auto* rp = e->as<ReplicateE>()) {
    par_walk(rp->elem, acc);
  } else if (auto* ra = e->as<RearrangeE>()) {
    par_walk(ra->e, acc);
  } else if (auto* ix = e->as<IndexE>()) {
    par_walk(ix->arr, acc);
    par_walk_all(ix->idxs, acc);
  } else if (auto* m = e->as<MapE>()) {
    par_walk_all(m->arrays, acc);
    par_walk(m->f.body, acc);
  } else if (auto* r = e->as<ReduceE>()) {
    par_walk_all(r->neutral, acc);
    par_walk_all(r->arrays, acc);
    par_walk(r->op.body, acc);
  } else if (auto* s = e->as<ScanE>()) {
    par_walk_all(s->neutral, acc);
    par_walk_all(s->arrays, acc);
    par_walk(s->op.body, acc);
  } else if (auto* rm = e->as<RedomapE>()) {
    par_walk_all(rm->neutral, acc);
    par_walk_all(rm->arrays, acc);
    par_walk(rm->red.body, acc);
    par_walk(rm->mapf.body, acc);
  } else if (auto* sm = e->as<ScanomapE>()) {
    par_walk_all(sm->neutral, acc);
    par_walk_all(sm->arrays, acc);
    par_walk(sm->red.body, acc);
    par_walk(sm->mapf.body, acc);
  }
}

/// Per-point result bytes of a seg-op body, symbolically: scalars
/// contribute their width; per-point arrays contribute width times their
/// (symbolic) element count — mirroring cost.cpp's bytes_per_point_results.
SizeExpr point_bytes(const SegOpE& so) {
  SizeExpr total;
  for (const auto& t : so.body->types) {
    SizeProd p;
    p.konst = scalar_bytes(t.elem);
    for (const auto& d : t.shape) p *= d;
    total = total.alts.empty() ? SizeExpr::of(p) : total.max_with(SizeExpr::of(p));
  }
  return total;
}

void local_walk(const ExprP& e, bool in_group,
                SizeExpr& acc);  // NOLINT(misc-no-recursion)

void local_walk(const ExprP& e, bool in_group, SizeExpr& acc) {
  if (!e) return;
  if (auto* so = e->as<SegOpE>()) {
    if (in_group) {
      // The cost model stages 2 * points * elem_bytes of intermediates in
      // scratchpad for each inner seg-op (double-buffered tree/sweep).
      const SizeExpr pb = point_bytes(*so);
      SizeProd pts = space_prod(so->space);
      pts.konst = sat_mul(pts.konst, 2);
      SizeExpr mine = pb.times(pts);
      acc = acc.max_with(mine);
    }
    local_walk(so->body, in_group || so->level >= 1, acc);
    return;
  }
  if (auto* b = e->as<BinOpE>()) {
    local_walk(b->lhs, in_group, acc);
    local_walk(b->rhs, in_group, acc);
  } else if (auto* u = e->as<UnOpE>()) {
    local_walk(u->e, in_group, acc);
  } else if (auto* i = e->as<IfE>()) {
    local_walk(i->then_e, in_group, acc);
    local_walk(i->else_e, in_group, acc);
  } else if (auto* l = e->as<LetE>()) {
    local_walk(l->rhs, in_group, acc);
    local_walk(l->body, in_group, acc);
  } else if (auto* lp = e->as<LoopE>()) {
    for (const auto& x : lp->inits) local_walk(x, in_group, acc);
    local_walk(lp->body, in_group, acc);
  } else if (auto* t = e->as<TupleE>()) {
    for (const auto& x : t->elems) local_walk(x, in_group, acc);
  } else if (auto* rp = e->as<ReplicateE>()) {
    local_walk(rp->elem, in_group, acc);
  } else if (auto* ra = e->as<RearrangeE>()) {
    local_walk(ra->e, in_group, acc);
  } else if (auto* ix = e->as<IndexE>()) {
    local_walk(ix->arr, in_group, acc);
    for (const auto& x : ix->idxs) local_walk(x, in_group, acc);
  }
  // Sequential SOACs do not stage intermediates in scratchpad.
}

}  // namespace

SizeExpr par_of(const ExprP& e) {
  SizeExpr acc;
  par_walk(e, acc);
  return acc;
}

SizeExpr local_mem_of(const ExprP& e) {
  SizeExpr acc;
  local_walk(e, false, acc);
  return acc;
}

ProgramAnalysis analyze_program(const Program& p) {
  ProgramAnalysis out;
  out.defuse = def_use(p);

  RangeDomain dom;
  dom.bounds = p.size_bounds;
  ForwardInterp<RangeDomain> interp(dom);
  interp.run(p);
  for (const auto& [name, interval] : interp.bindings()) {
    out.bindings[name].range = interval;
  }

  // Shape / Par / local-memory facts come from the defining expressions of
  // let bindings (the only binders whose right-hand side is a whole
  // expression).
  struct Walk {
    ProgramAnalysis& out;
    void visit(const ExprP& e) {  // NOLINT(misc-no-recursion)
      if (!e) return;
      if (auto* l = e->as<LetE>()) {
        for (size_t i = 0; i < l->vars.size(); ++i) {
          BindingFacts& f = out.bindings[l->vars[i]];
          if (l->rhs && i < l->rhs->types.size()) {
            f.types = {l->rhs->types[i]};
          }
          f.par = par_of(l->rhs);
          f.local_mem = local_mem_of(l->rhs);
          f.has_local = !f.local_mem.alts.empty();
        }
        visit(l->rhs);
        visit(l->body);
        return;
      }
      if (auto* b = e->as<BinOpE>()) {
        visit(b->lhs);
        visit(b->rhs);
      } else if (auto* u = e->as<UnOpE>()) {
        visit(u->e);
      } else if (auto* i = e->as<IfE>()) {
        visit(i->cond);
        visit(i->then_e);
        visit(i->else_e);
      } else if (auto* lp = e->as<LoopE>()) {
        for (const auto& x : lp->inits) visit(x);
        visit(lp->count);
        visit(lp->body);
      } else if (auto* t = e->as<TupleE>()) {
        for (const auto& x : t->elems) visit(x);
      } else if (auto* rp = e->as<ReplicateE>()) {
        visit(rp->elem);
      } else if (auto* ra = e->as<RearrangeE>()) {
        visit(ra->e);
      } else if (auto* ix = e->as<IndexE>()) {
        visit(ix->arr);
        for (const auto& x : ix->idxs) visit(x);
      } else if (auto* m = e->as<MapE>()) {
        for (const auto& x : m->arrays) visit(x);
        visit(m->f.body);
      } else if (auto* r = e->as<ReduceE>()) {
        for (const auto& x : r->neutral) visit(x);
        for (const auto& x : r->arrays) visit(x);
        visit(r->op.body);
      } else if (auto* s = e->as<ScanE>()) {
        for (const auto& x : s->neutral) visit(x);
        for (const auto& x : s->arrays) visit(x);
        visit(s->op.body);
      } else if (auto* rm = e->as<RedomapE>()) {
        for (const auto& x : rm->neutral) visit(x);
        for (const auto& x : rm->arrays) visit(x);
        visit(rm->red.body);
        visit(rm->mapf.body);
      } else if (auto* sm = e->as<ScanomapE>()) {
        for (const auto& x : sm->neutral) visit(x);
        for (const auto& x : sm->arrays) visit(x);
        visit(sm->red.body);
        visit(sm->mapf.body);
      } else if (auto* so = e->as<SegOpE>()) {
        for (const auto& x : so->neutral) visit(x);
        if (so->op != SegOpE::Op::Map) visit(so->combine.body);
        visit(so->body);
      }
    }
  };
  Walk w{out};
  w.visit(p.body);
  return out;
}

}  // namespace analysis
}  // namespace incflat
