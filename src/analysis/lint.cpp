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
    const auto* i = e->as<IfE>();
    if (const auto* tc = i ? i->cond->as<ThresholdCmpE>() : nullptr) {
      if (guard_never_taken(*tc, opts.limits, bounds)) {
        emit(Severity::Warning, "dead-version", at,
             "guard on '" + tc->threshold +
                 "' is always-false for every in-bounds dataset on " +
                 on_device() + ": the then-arm (" +
                 std::to_string(count_segops(i->then_e)) +
                 " seg-op version(s)) never fits a workgroup, so it is "
                 "dead code");
      } else if (fit_vacuous(tc->fit)) {
        emit(Severity::Note, "guard-constant-fit", at,
             "workgroup-fit bound " + tc->fit.str() + " of guard '" +
                 tc->threshold + "' always fits " + on_device() +
                 " (max_group_size " +
                 std::to_string(opts.limits.max_group_size) +
                 "): the comparison degenerates to a pure threshold test");
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
};

}  // namespace

std::vector<Diagnostic> lint_program(const Program& p,
                                     const LintOptions& opts) {
  std::vector<Diagnostic> ds;
  Linter lint{opts, p.size_bounds, ds};
  lint.walk(p.body, "body");

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
