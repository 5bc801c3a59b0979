#include "src/analysis/range.h"

#include <algorithm>
#include <limits>

#include "src/ir/traverse.h"

namespace incflat {
namespace analysis {

namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

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

IntInterval interval_neg(const IntInterval& a) {
  IntInterval out;
  out.lo_finite = a.hi_finite;
  out.hi_finite = a.lo_finite;
  if (out.lo_finite) out.lo = a.hi == kMin ? kMax : -a.hi;
  if (out.hi_finite) out.hi = a.lo == kMin ? kMax : -a.lo;
  return desaturate(out);
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
// Local-memory footprints.

namespace {

SizeProd space_prod(const SegSpace& space) {
  SizeProd p;
  for (const auto& b : space) p *= b.dim;
  return p;
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
                SizeExpr& acc) {  // NOLINT(misc-no-recursion)
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
  // Sequential SOACs do not stage intermediates in scratchpad.
  if (is_soac(*e)) return;
  for_each_child(*e,
                 [&](const Child& c) { local_walk(c.expr, in_group, acc); });
}

}  // namespace

SizeExpr local_mem_of(const ExprP& e) {
  SizeExpr acc;
  local_walk(e, false, acc);
  return acc;
}

}  // namespace analysis
}  // namespace incflat
