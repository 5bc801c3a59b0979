#include "src/ir/verify.h"

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"

namespace incflat {

namespace {

std::string render(const std::vector<Diagnostic>& ds) {
  // First line keeps the historical single-violation format; further
  // findings are appended one per line so what() carries the full list.
  std::string s = "verification failed (" + ds.front().check + ") " +
                  ds.front().context + ": " + ds.front().message;
  if (ds.size() > 1) {
    s += "\n  ... " + std::to_string(ds.size() - 1) + " more finding(s):";
    for (size_t i = 1; i < ds.size(); ++i) s += "\n  " + ds[i].str();
  }
  return s;
}

struct Verifier {
  const std::string& context;
  std::vector<Diagnostic>& out;

  void note(const char* check, const std::string& at,
            const std::string& detail, const ExprP& site) const {
    Diagnostic d;
    d.severity = Severity::Error;
    d.check = check;
    d.context = context;
    d.path = at;
    d.message = detail;
    if (site) d.message += "\n  in: " + pretty(site).substr(0, 300);
    out.push_back(std::move(d));
  }

  // -- types ----------------------------------------------------------------

  /// Walks `have` and `want`, the same tree as a fresh typecheck rebuilt
  /// it, in lockstep and notes the first annotation that differs; returns
  /// false once it has.
  bool check_annotations(const ExprP& have, const ExprP& want,
                         const std::string& at) const {
    if (!have || !want) return true;
    if (have->types != want->types) {
      note("types", at,
           "node annotated " + types_str(have->types) +
               " but the type checker computes " + types_str(want->types),
           have);
      return false;
    }
    struct Wanted {
      const ExprP* expr;
      std::span<const Param> params;
    };
    std::vector<Wanted> wanted;
    for_each_child(*want, [&](const Child& c) {
      wanted.push_back({&c.expr, c.binds.params});
    });
    size_t k = 0;
    bool ok = true;
    for_each_child(*have, [&](const Child& c) {
      if (!ok || k == wanted.size()) return;
      const Wanted& w = wanted[k++];
      const std::string here = c.path(at);
      for (size_t i = 0; i < c.binds.params.size() && ok; ++i) {
        const Param& p = c.binds.params[i];
        if (i < w.params.size() && p.type != w.params[i].type) {
          note("types", here,
               "lambda parameter " + p.name + " annotated " + p.type.str() +
                   " but the type checker computes " + w.params[i].type.str(),
               c.expr);
          ok = false;
        }
      }
      ok = ok && check_annotations(c.expr, *w.expr, here);
    });
    return ok;
  }

  static std::string types_str(const std::vector<Type>& ts) {
    std::string s = "(";
    for (const auto& t : ts) s += (s.size() > 1 ? ", " : "") + t.str();
    return s + ")";
  }

  // -- guards ---------------------------------------------------------------

  /// `fit_guarded` is true while inside the then-arm of a guard whose
  /// comparison carries a workgroup-fit bound; only there may intra-group
  /// versions appear, because every other position is reachable when the
  /// inner parallelism does not fit the device's workgroups.  `in_kernel`
  /// is true inside a seg-op, where no guard may appear.  `compared`
  /// collects the thresholds of the guards walked so far.
  void check_guards(const ExprP& e, bool fit_guarded, bool in_kernel,
                    const std::string& at,
                    std::set<std::string>& compared) const {
    if (!e) return;
    if (auto* i = e->as<IfE>()) {
      if (auto* tc = i->cond->as<ThresholdCmpE>()) {
        if (in_kernel) {
          note("guards", at,
               "threshold guard on '" + tc->threshold +
                   "' inside a kernel: code versions are chosen on the host",
               e);
        }
        if (!compared.insert(tc->threshold).second) {
          note("guards", at,
               "threshold '" + tc->threshold +
                   "' is compared by more than one guard",
               e);
        }
        check_guards(i->then_e, fit_guarded || !tc->fit.alts.empty(),
                     in_kernel, at + ".then", compared);
        check_guards(i->else_e, fit_guarded, in_kernel, at + ".else",
                     compared);
        return;
      }
    }
    if (e->is<ThresholdCmpE>()) {
      note("guards", at, "threshold comparison outside an if-condition", e);
      return;
    }
    auto* so = e->as<SegOpE>();
    if (so && !fit_guarded && so->level >= 1 && has_segops(so->body)) {
      note("guards", at + "." + segop_label(*so),
           "intra-group version (level-" + std::to_string(so->level) +
               " seg-op with parallel body) reachable without a "
               "workgroup-fit guard: no feasible fallback arm",
           e);
    }
    for_each_child(*e, [&](const Child& c) {
      check_guards(c.expr, fit_guarded, in_kernel || so, c.path(at),
                   compared);
    });
  }

  // -- segbinds -------------------------------------------------------------

  /// Scope-tracking walk: `scope` holds every name bound at this point.
  /// For each seg-op, each level's source arrays must resolve to the scope
  /// extended with the params of strictly outer levels of the same space.
  void check_segbinds(const ExprP& e, const std::set<std::string>& scope,
                      const std::string& at) const {
    if (!e) return;
    if (auto* so = e->as<SegOpE>()) {
      const std::string here = at + "." + segop_label(*so);
      std::set<std::string> inner = scope;
      std::set<std::string> space_params;
      for (size_t lvl = 0; lvl < so->space.size(); ++lvl) {
        const SegBind& b = so->space[lvl];
        if (b.params.size() != b.arrays.size()) {
          note("segbinds", here,
               "seg-space level " + std::to_string(lvl) + " binds " +
                   std::to_string(b.params.size()) + " params to " +
                   std::to_string(b.arrays.size()) + " arrays",
               e);
          continue;  // arity is broken; pairwise checks would misfire
        }
        for (const auto& a : b.arrays) {
          if (!inner.count(a)) {
            note("segbinds", here,
                 "dangling seg-space binding: array '" + a +
                     "' is not bound by an enclosing binder or an outer "
                     "level of this space",
                 e);
          }
        }
        for (const auto& p : b.params) {
          if (!space_params.insert(p).second) {
            note("segbinds", here,
                 "seg-space binds parameter '" + p + "' twice", e);
          }
          inner.insert(p);
        }
      }
    }
    for_each_child(*e, [&](const Child& c) {
      if (c.binds.empty()) return check_segbinds(c.expr, scope, c.path(at));
      std::set<std::string> inner = scope;
      c.binds.each([&](const std::string& n) { inner.insert(n); });
      check_segbinds(c.expr, inner, c.path(at));
    });
  }
};

}  // namespace

VerifyError::VerifyError(std::string check, std::string context,
                         const std::string& detail)
    : VerifyError(std::vector<Diagnostic>{Diagnostic{
          Severity::Error, std::move(check), std::move(context), "",
          detail}}) {}

VerifyError::VerifyError(std::vector<Diagnostic> diags)
    : CompilerError(render(diags)), diags_(std::move(diags)) {}

std::vector<Diagnostic> verify_diagnostics(const Program& p,
                                           const std::string& context,
                                           const VerifyOptions& opts) {
  std::vector<Diagnostic> ds;
  Verifier v{context, ds};
  if (opts.types) {
    // The type checker is fail-fast, and the annotation walk stops at its
    // first mismatch, so this check contributes at most one diagnostic; the
    // structural checks below still run on an ill-typed program (they never
    // consult types).
    try {
      const Program checked = typecheck_program(p);
      v.check_annotations(p.body, checked.body, "body");
    } catch (const CompilerError& e) {
      ds.push_back(
          Diagnostic{Severity::Error, "types", context, "", e.what()});
    }
  }
  if (opts.levels) {
    try {
      check_level_discipline(p.body);
    } catch (const CompilerError& e) {
      ds.push_back(
          Diagnostic{Severity::Error, "levels", context, "", e.what()});
    }
  }
  if (opts.guards) {
    std::set<std::string> compared;
    v.check_guards(p.body, false, false, "body", compared);
  }
  if (opts.segbinds) {
    std::set<std::string> scope;
    for (const auto& in : p.inputs) scope.insert(in.name);
    for (const auto& sp : p.size_params()) scope.insert(sp);
    v.check_segbinds(p.body, scope, "body");
  }
  return ds;
}

void verify_program(const Program& p, const std::string& context,
                    const VerifyOptions& opts) {
  std::vector<Diagnostic> ds = verify_diagnostics(p, context, opts);
  if (!ds.empty()) throw VerifyError(std::move(ds));
}

}  // namespace incflat
