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

// ---------------------------------------------------------------------------

AnalysisLimits limits_for(const DeviceProfile& dev) {
  AnalysisLimits lim;
  lim.max_group_size = dev.max_group_size;
  lim.local_mem_bytes = dev.local_mem_bytes;
  return lim;
}

bool guard_never_taken(const ThresholdCmpE& tc, const AnalysisLimits& lim,
                       const SizeBounds& bounds) {
  if (tc.fit.alts.empty() || lim.max_group_size < 0) return false;
  const IntInterval fi = interval_of(tc.fit, bounds);
  return fi.lo_finite && fi.lo > lim.max_group_size;
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
