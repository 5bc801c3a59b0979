// Symbolic size algebra over the program's size variables, and the guard
// decision simplify-guards and lint build on it.
//
//  * IntInterval — a saturating integer interval [lo, hi] with open ends,
//    with just the arithmetic (mul/min/max/neg) needed to concretize a
//    size expression under the program's declared SizeBounds.
//
//  * interval_of — `Par(...)` degrees and workgroup-fit bounds are
//    *monomials* (max of products of size variables, src/ir/size.h), so a
//    question like "is this fit bound ever <= max_group_size" reduces to
//    concretizing the monomial to an interval under the declared bounds.
//
// Soundness invariant (property-tested in tests/test_analysis.cpp): for
// every size assignment satisfying the declared bounds — size variables
// default to [1, inf) — a size expression's value lies inside its
// interval_of.  guard_never_taken answers true only when the guard fails
// for *all* in-bounds assignments and *all* threshold values.
#pragma once

#include <cstdint>
#include <string>

#include "src/gpusim/device.h"
#include "src/ir/expr.h"
#include "src/ir/size.h"

namespace incflat {
namespace analysis {

// ---------------------------------------------------------------------------
// Intervals.

/// Integer interval with optionally-open ends.  Arithmetic saturates at
/// int64 range (treated as infinite), which is sound: a saturated bound is
/// simply reported as open.
struct IntInterval {
  bool lo_finite = false;
  bool hi_finite = false;
  int64_t lo = 0;  // meaningful only when lo_finite
  int64_t hi = 0;  // meaningful only when hi_finite

  static IntInterval top() { return {}; }
  static IntInterval point(int64_t v) { return {true, true, v, v}; }
  static IntInterval range(int64_t lo, int64_t hi) {
    return {true, true, lo, hi};
  }
  static IntInterval at_least(int64_t lo) { return {true, false, lo, 0}; }
  static IntInterval at_most(int64_t hi) { return {false, true, 0, hi}; }

  bool is_top() const { return !lo_finite && !hi_finite; }
  bool contains(int64_t v) const {
    return (!lo_finite || v >= lo) && (!hi_finite || v <= hi);
  }
  std::string str() const;
  bool operator==(const IntInterval& o) const {
    return lo_finite == o.lo_finite && hi_finite == o.hi_finite &&
           (!lo_finite || lo == o.lo) && (!hi_finite || hi == o.hi);
  }
};

IntInterval interval_mul(const IntInterval& a, const IntInterval& b);
IntInterval interval_min(const IntInterval& a, const IntInterval& b);
IntInterval interval_max(const IntInterval& a, const IntInterval& b);
IntInterval interval_neg(const IntInterval& a);

// ---------------------------------------------------------------------------
// Symbolic sizes under declared bounds.

/// Declared interval of one size variable: [lo, hi] from SizeBounds, or the
/// implicit [1, inf) when undeclared.
IntInterval size_var_interval(const std::string& name, const SizeBounds& b);

/// Interval of a monomial / size expression for all in-bounds assignments.
/// SizeExpr evaluation clamps to >= 1 (src/ir/size.cpp), mirrored here.
IntInterval interval_of(const SizeProd& p, const SizeBounds& b);
IntInterval interval_of(const SizeExpr& e, const SizeBounds& b);

// ---------------------------------------------------------------------------
// Guard decisions.

/// Device limits consulted when deciding guards.  Negative = unknown: only
/// device-independent decisions are made.
struct AnalysisLimits {
  int64_t max_group_size = -1;
  int64_t local_mem_bytes = -1;
};

AnalysisLimits limits_for(const DeviceProfile& dev);

/// True if `par >= t && (fit empty || fit <= max_group_size)` is false for
/// all in-bounds size assignments and all values of threshold t: the fit
/// bound's *lower* bound exceeds max_group_size, so the intra-group version
/// can never fit a workgroup (rule F1).  A guard with no fit bound is never
/// decided: t is a free tuning parameter, so both branches are reachable.
/// No guard is ever always taken, for the same reason.
bool guard_never_taken(const ThresholdCmpE& tc, const AnalysisLimits& lim,
                       const SizeBounds& bounds);

// ---------------------------------------------------------------------------
// Local-memory footprints.

/// Symbolic scratchpad footprint in bytes of the widest intra-group seg-op
/// in `e` (the cost model's local_peak).  Empty alts = no intra-group work.
SizeExpr local_mem_of(const ExprP& e);

}  // namespace analysis
}  // namespace incflat
