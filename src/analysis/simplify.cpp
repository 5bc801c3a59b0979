#include "src/analysis/simplify.h"

#include <set>
#include <utility>

#include "src/ir/traverse.h"
#include "src/support/trace.h"

namespace incflat {
namespace analysis {

namespace {

struct GuardFolder {
  const AnalysisLimits& lim;
  const SizeBounds& bounds;
  SimplifyStats& stats;

  /// Fold guards under the established facts about enclosing guard
  /// outcomes.  Only the spine positions where guards can occur (verified
  /// by src/ir/verify.cpp: if-conditions) are rewritten; everything that
  /// cannot contain a guard is returned unchanged, preserving sharing so a
  /// disabled pass is bit-identical by construction.
  ExprP fold(const ExprP& e, GuardFacts& facts) {  // NOLINT(misc-no-recursion)
    if (!e) return e;
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const GuardDecision d = decide_guard(*tc, lim, bounds, facts);
        if (d != GuardDecision::Unknown) {
          const bool taken = d == GuardDecision::AlwaysTrue;
          const ExprP& kept = taken ? i->then_e : i->else_e;
          const ExprP& dropped = taken ? i->else_e : i->then_e;
          ++stats.guards_folded;
          stats.versions_pruned += count_segops(dropped);
          push_fact(facts, *tc, taken);
          ExprP out = fold(kept, facts);
          pop_fact(facts, tc->threshold);
          return out;
        }
        push_fact(facts, *tc, true);
        ExprP then_e = fold(i->then_e, facts);
        pop_fact(facts, tc->threshold);
        push_fact(facts, *tc, false);
        ExprP else_e = fold(i->else_e, facts);
        pop_fact(facts, tc->threshold);
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
    auto fold_child = [&](const Child& c) { return fold(c.expr, facts); };
    return map_children(e, fold_child);
  }

  static void push_fact(GuardFacts& facts, const ThresholdCmpE& tc,
                        bool taken) {
    facts[tc.threshold].push_back(GuardFact{tc.par, tc.fit, taken});
  }

  static void pop_fact(GuardFacts& facts, const std::string& name) {
    auto it = facts.find(name);
    it->second.pop_back();
    if (it->second.empty()) facts.erase(it);
  }
};

}  // namespace

SimplifyStats simplify_guards(Program& p, ThresholdRegistry& reg,
                              const AnalysisLimits& lim) {
  SimplifyStats stats;
  GuardFolder folder{lim, p.size_bounds, stats};
  GuardFacts facts;
  p.body = folder.fold(p.body, facts);

  std::set<std::string> surviving;
  for (const auto& name : collect_thresholds(p.body)) surviving.insert(name);
  stats.thresholds_dropped =
      static_cast<int64_t>(reg.retain(surviving));

  if (trace::enabled()) {
    trace::count("analysis.guards_folded", stats.guards_folded);
    trace::count("analysis.versions_pruned", stats.versions_pruned);
    trace::count("analysis.thresholds_dropped", stats.thresholds_dropped);
  }
  return stats;
}

}  // namespace analysis
}  // namespace incflat
