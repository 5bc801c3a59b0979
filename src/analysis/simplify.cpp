#include "src/analysis/simplify.h"

#include <utility>

#include "src/flatten/thresholds.h"
#include "src/ir/traverse.h"
#include "src/support/trace.h"

namespace incflat {
namespace analysis {

namespace {

struct GuardFolder {
  const AnalysisLimits& lim;
  const SizeBounds& bounds;
  SimplifyStats& stats;

  /// Fold decidable guards.  Only the spine positions where guards can
  /// occur (verified by src/ir/verify.cpp: if-conditions) are rewritten;
  /// everything that cannot contain a guard is returned unchanged,
  /// preserving sharing so a disabled pass is bit-identical by construction.
  ExprP fold(const ExprP& e) {  // NOLINT(misc-no-recursion)
    if (!e) return e;
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        if (guard_never_taken(*tc, lim, bounds)) {
          // F1: only the else-version can run.
          ++stats.guards_folded;
          stats.versions_pruned += count_segops(i->then_e);
          return fold(i->else_e);
        }
        ExprP then_e = fold(i->then_e);
        ExprP else_e = fold(i->else_e);
        if (same_ir(then_e, else_e)) {
          // F3: the guard distinguishes nothing.
          ++stats.guards_folded;
          return then_e;
        }
        if (then_e == i->then_e && else_e == i->else_e) return e;
        return mk(IfE{i->cond, std::move(then_e), std::move(else_e)},
                  e->types);
      }
    }
    // Guards sit only on the spine of ifs, lets, loops, tuples and seg-op
    // bodies (intra-group versions nest them), so the walk stops elsewhere.
    if (!e->is<IfE>() && !e->is<LetE>() && !e->is<LoopE>() &&
        !e->is<TupleE>() && !e->is<SegOpE>()) {
      return e;
    }
    return map_children(e, [&](const Child& c) { return fold(c.expr); });
  }
};

}  // namespace

SimplifyStats simplify_guards(Program& p, const AnalysisLimits& lim) {
  SimplifyStats stats;
  GuardFolder folder{lim, p.size_bounds, stats};
  const size_t before = ThresholdRegistry(p.body).size();
  p.body = folder.fold(p.body);
  stats.thresholds_dropped =
      static_cast<int64_t>(before - ThresholdRegistry(p.body).size());

  if (trace::enabled()) {
    trace::count("analysis.guards_folded", stats.guards_folded);
    trace::count("analysis.versions_pruned", stats.versions_pruned);
    trace::count("analysis.thresholds_dropped", stats.thresholds_dropped);
  }
  return stats;
}

}  // namespace analysis
}  // namespace incflat
