#include "src/analysis/lint.h"

#include <set>

#include "src/analysis/dataflow.h"
#include "src/ir/traverse.h"

namespace incflat {
namespace analysis {

namespace {

struct Linter {
  const LintOptions& opts;
  const SizeBounds& bounds;
  std::vector<Diagnostic>& out;
  GuardFacts facts;

  void emit(Severity sev, const char* check, const std::string& at,
            const std::string& msg) {
    out.push_back(Diagnostic{sev, check, "lint", at, msg});
  }

  bool fit_vacuous(const SizeExpr& fit) const {
    if (fit.alts.empty() || opts.limits.max_group_size < 0) return false;
    const IntInterval fi = interval_of(fit, bounds);
    return fi.hi_finite && fi.hi <= opts.limits.max_group_size;
  }

  std::string on_device() const {
    return opts.device_name.empty() ? std::string("this device")
                                    : "device '" + opts.device_name + "'";
  }

  void walk(const ExprP& e, const std::string& at) {  // NOLINT(misc-no-recursion)
    if (!e) return;
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        const GuardDecision d = decide_guard(*tc, opts.limits, bounds, facts);
        if (d != GuardDecision::Unknown) {
          const bool taken = d == GuardDecision::AlwaysTrue;
          emit(Severity::Warning, "dead-version", at,
               "guard on '" + tc->threshold + "' is " +
                   guard_decision_name(d) + " for every in-bounds dataset on " +
                   on_device() + ": the " + (taken ? "else" : "then") +
                   "-arm (" +
                   std::to_string(count_segops(taken ? i->else_e : i->then_e)) +
                   " seg-op version(s)) is dead code; "
                   "simplify-guards removes it");
        } else if (fit_vacuous(tc->fit)) {
          emit(Severity::Note, "guard-constant-fit", at,
               "workgroup-fit bound " + tc->fit.str() + " of guard '" +
                   tc->threshold + "' always fits " + on_device() +
                   " (max_group_size " +
                   std::to_string(opts.limits.max_group_size) +
                   "): the comparison degenerates to a pure threshold test");
        }
        push(*tc, true);
        walk(i->then_e, at + ".then");
        pop(tc->threshold);
        push(*tc, false);
        walk(i->else_e, at + ".else");
        pop(tc->threshold);
        return;
      }
    }
    if (auto* so = e->as<SegOpE>()) {
      const std::string here = at + "." + segop_label(*so);
      if (so->level >= 1) {
        const SizeExpr lmem = local_mem_of(e);
        if (!lmem.alts.empty() && opts.limits.local_mem_bytes >= 0) {
          const IntInterval li = interval_of(lmem, bounds);
          if (li.lo_finite && li.lo > opts.limits.local_mem_bytes) {
            emit(Severity::Error, "local-mem-overflow", here,
                 "intra-group version needs at least " +
                     std::to_string(li.lo) + " bytes of scratchpad (" +
                     lmem.str() + ") but " + on_device() + " has " +
                     std::to_string(opts.limits.local_mem_bytes) +
                     ": the local-memory fallback always fires");
          }
        }
      }
      check_segbinds(*so, here);
    }
    for_each_child(*e, [&](const Child& c) { walk(c.expr, c.path(at)); });
  }

  /// Same used-set construction as prune-segbinds (innermost level first):
  /// a binding is live if the body, the combine operator, or a deeper
  /// level's source array references it.
  void check_segbinds(const SegOpE& so, const std::string& here) {
    std::set<std::string> used = free_vars(so.body);
    if (so.op != SegOpE::Op::Map) {
      for (const auto& fv : free_vars(so.combine.body)) used.insert(fv);
      for (const auto& p : so.combine.params) used.erase(p.name);
    }
    for (size_t k = so.space.size(); k > 0; --k) {
      const SegBind& b = so.space[k - 1];
      for (size_t i = 0; i < b.params.size(); ++i) {
        if (used.count(b.params[i])) {
          used.insert(b.arrays[i]);
        } else {
          emit(Severity::Warning, "unused-segbind", here,
               "seg-space binding '" + b.params[i] + " in " + b.arrays[i] +
                   "' at level " + std::to_string(k - 1) +
                   " is used neither by the body nor by a deeper binding "
                   "(prune-segbinds should have removed it)");
        }
      }
    }
  }

  void push(const ThresholdCmpE& tc, bool taken) {
    facts[tc.threshold].push_back(GuardFact{tc.par, tc.fit, taken});
  }
  void pop(const std::string& name) {
    auto it = facts.find(name);
    it->second.pop_back();
    if (it->second.empty()) facts.erase(it);
  }
};

}  // namespace

std::vector<Diagnostic> lint_program(const Program& p,
                                     const ThresholdRegistry& reg,
                                     const LintOptions& opts) {
  std::vector<Diagnostic> ds;
  Linter lint{opts, p.size_bounds, ds, {}};
  lint.walk(p.body, "body");

  std::set<std::string> mentioned;
  for (const auto& name : collect_thresholds(p.body)) mentioned.insert(name);
  for (const auto& ti : reg.all()) {
    if (!mentioned.count(ti.name)) {
      ds.push_back(Diagnostic{
          Severity::Warning, "unused-threshold", "lint", "",
          "threshold parameter '" + ti.name + "' (par " + ti.par.str() +
              ") is mentioned by no guard in the IR: it only widens the "
              "autotuner's search space"});
    }
  }

  const DefUse du = def_use(p);
  for (const auto& name : dead_defs(du)) {
    const DefInfo& info = du.defs.at(name);
    ds.push_back(Diagnostic{
        Severity::Note, "dead-binding", "lint", "",
        std::string(def_kind_name(info.kind)) + " binding '" + name +
            "' is never used"});
  }
  return ds;
}

}  // namespace analysis
}  // namespace incflat
