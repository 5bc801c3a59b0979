// Symbolic size algebra over the program's size variables, and the guard
// decisions simplify-guards and lint build on it.
//
//  * IntInterval — a saturating integer interval [lo, hi] with open ends,
//    with just the arithmetic (mul/min/max/neg) needed to concretize a
//    size expression under the program's declared SizeBounds.
//
//  * symbolic SizeProd/SizeExpr comparison — `Par(...)` degrees and
//    workgroup-fit bounds are *monomials* (max of products of size
//    variables, src/ir/size.h), so questions like "is this fit bound ever
//    <= max_group_size" reduce to (a) concretizing the monomial to an
//    interval under the program's declared SizeBounds, and (b) a sound
//    monomial dominance test (prod_leq / expr_leq) for guard-vs-guard
//    comparisons that stay symbolic.
//
// Soundness invariant (property-tested in tests/test_analysis.cpp): for
// every size assignment satisfying the declared bounds — size variables
// default to [1, inf) — a size expression's value lies inside its
// interval_of, and prod_leq / expr_leq answer true only when the
// inequality holds pointwise.  The guard decision procedure only answers
// AlwaysTrue / AlwaysFalse when that holds for *all* in-bounds
// assignments and *all* threshold values; everything else is Unknown.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

/// Sound monomial dominance: true only if p <= q for *every* in-bounds
/// assignment.  Holds when q's variable multiset covers p's and the
/// constant slack does, too; incomplete (false means "don't know").
bool prod_leq(const SizeProd& p, const SizeProd& q, const SizeBounds& b);

/// expr_leq(a, b): every alternative of a is dominated by some alternative
/// of b, or the concrete intervals already separate them.
bool expr_leq(const SizeExpr& a, const SizeExpr& b, const SizeBounds& b_env);

// ---------------------------------------------------------------------------
// Guard decisions.

/// Device limits consulted when deciding guards.  Negative = unknown: only
/// device-independent decisions are made.
struct AnalysisLimits {
  int64_t max_group_size = -1;
  int64_t local_mem_bytes = -1;
};

AnalysisLimits limits_for(const DeviceProfile& dev);

enum class GuardDecision { AlwaysTrue, AlwaysFalse, Unknown };

const char* guard_decision_name(GuardDecision d);

/// A guard comparison known to have evaluated to `taken` on the current
/// path (an enclosing guard over the same threshold parameter).
struct GuardFact {
  SizeExpr par;
  SizeExpr fit;
  bool taken = false;
};
using GuardFacts = std::map<std::string, std::vector<GuardFact>>;

/// Decide `par >= t && (fit empty || fit <= max_group_size)` for all
/// in-bounds size assignments and all values of threshold t:
///
///   AlwaysFalse — the fit bound's *lower* bound exceeds max_group_size
///                 (the intra-group version can never fit a workgroup), or
///                 an enclosing guard over the same t failed with a
///                 dominating par (par' >= par, fit' vacuous), so
///                 par >= par' >= ... is impossible here too.
///   AlwaysTrue  — an enclosing guard over the same t succeeded with a
///                 dominated par (par' <= par) and this guard's fit is
///                 implied (empty, <= the enclosing fit, or provably
///                 <= max_group_size).
///   Unknown     — everything else.  In particular a guard with no fit
///                 bound is *never* AlwaysTrue/False on its own: t is a
///                 free tuning parameter, so both branches are reachable.
GuardDecision decide_guard(const ThresholdCmpE& tc, const AnalysisLimits& lim,
                           const SizeBounds& bounds, const GuardFacts& facts);

// ---------------------------------------------------------------------------
// Local-memory footprints.

/// Symbolic scratchpad footprint in bytes of the widest intra-group seg-op
/// in `e` (the cost model's local_peak).  Empty alts = no intra-group work.
SizeExpr local_mem_of(const ExprP& e);

}  // namespace analysis
}  // namespace incflat
