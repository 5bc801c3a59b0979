#include "src/flatten/transform.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/flatten/thresholds.h"
#include "src/ir/builder.h"
#include "src/ir/traverse.h"
#include "src/ir/typecheck.h"
#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

const Type& type_of(const ScopedTypeEnv& env, const std::string& name) {
  const Type* t = env.find(name);
  INCFLAT_CHECK(t, "flatten: variable " + name + " untyped");
  return *t;
}

std::set<std::string> space_dom(const SegSpace& sigma) {
  std::set<std::string> out;
  for (const auto& b : sigma) {
    out.insert(b.params.begin(), b.params.end());
  }
  return out;
}

std::vector<Dim> space_dims(const SegSpace& sigma) {
  std::vector<Dim> out;
  for (const auto& b : sigma) out.push_back(b.dim);
  return out;
}

// Typed constructors: every node the transform builds carries the types the
// checker would give it, so the target program needs no re-typecheck.

/// `ts`, each with the extra outer dimensions `outer` (rules G6/G7).
std::vector<Type> expand_all(const std::vector<Type>& ts,
                             const std::vector<Dim>& outer) {
  std::vector<Type> out;
  out.reserve(ts.size());
  for (const auto& t : ts) out.push_back(t.expand(outer));
  return out;
}

ExprP typed_var(const ScopedTypeEnv& env, const std::string& name) {
  return mk(VarE{name}, {type_of(env, name)});
}

ExprP typed_let(std::vector<std::string> vars, ExprP rhs, ExprP body) {
  std::vector<Type> ts = body->types;
  return mk(LetE{std::move(vars), std::move(rhs), std::move(body)},
            std::move(ts));
}

/// A guard or branch: typed as its arms.
ExprP typed_if(ExprP cond, ExprP then_e, ExprP else_e) {
  std::vector<Type> ts = then_e->types;
  return mk(IfE{std::move(cond), std::move(then_e), std::move(else_e)},
            std::move(ts));
}

ExprP typed_replicate(const Dim& count, const ExprP& x) {
  return mk(ReplicateE{count, x}, {x->type().expand({count})});
}

ExprP typed_guard(const std::string& threshold, SizeExpr par, SizeExpr fit) {
  return mk(ThresholdCmpE{threshold, std::move(par), std::move(fit)},
            {Type::scalar(Scalar::Bool)});
}

/// A seg-op's results are its body's types expanded by the space's dims;
/// a segred reduces its innermost level away.
ExprP typed_segop(SegOpE so) {
  std::vector<Dim> dims = space_dims(so.space);
  if (so.op == SegOpE::Op::Red) dims.pop_back();
  std::vector<Type> ts = expand_all(so.body->types, dims);
  return mk(std::move(so), std::move(ts));
}

/// Par(Σ): the product of the context's dimensions (paper Sec. 3.2).
SizeExpr par_of_space(const SegSpace& sigma) {
  SizeProd p;
  for (const auto& b : sigma) p *= b.dim;
  return SizeExpr::of(p);
}

void collect_segop_pars(const ExprP& e, SizeExpr& acc) {
  if (!e) return;
  if (auto* so = e->as<SegOpE>()) {
    acc = acc.max_with(par_of_space(so->space));
    collect_segop_pars(so->body, acc);
    return;
  }
  for_each_child(*e, [&](const Child& c) { collect_segop_pars(c.expr, acc); });
}

/// Maximal degree of parallelism exposed by the seg-ops inside `e` (used
/// for Par(e_middle): the intra-group parallelism of the flattened body).
SizeExpr max_segop_par(const ExprP& e) {
  SizeExpr acc;
  collect_segop_pars(e, acc);
  if (acc.alts.empty()) acc = SizeExpr::one();
  return acc;
}

struct Flattener {
  FlattenMode mode;
  ib::NameGen ng;
  int thresholds_named = 0;  // G3's degenerate case does not give names back

  /// The types in scope at the expression being transformed.  A rule binds
  /// the names it introduces here, under a Scope that unbinds them when the
  /// rule returns, so its callers never see them.
  ScopedTypeEnv env;
  using Scope = ScopedTypeEnv::Scope;

  bool incremental() const { return mode == FlattenMode::Incremental; }

  /// A fresh threshold name of the given kind ("suff_outer_par" /
  /// "suff_intra_par"), numbered across both kinds in creation order.
  std::string fresh_threshold(const char* kind) {
    return std::string(kind) + "_" + std::to_string(thresholds_named++);
  }

  // -- small helpers --------------------------------------------------------

  /// Names for SOAC array operands; non-Var operands are hoisted into
  /// `hoists` (they must be invariant to sigma), and their names bound.
  std::vector<std::string> ensure_vars(
      const std::vector<ExprP>& args, const SegSpace& sigma,
      std::vector<std::pair<std::string, ExprP>>& hoists) {
    std::vector<std::string> out;
    const auto dom = space_dom(sigma);
    for (const auto& a : args) {
      if (auto* v = a->as<VarE>()) {
        out.push_back(v->name);
        continue;
      }
      for (const auto& fvn : free_vars(a)) {
        INCFLAT_CHECK(!dom.count(fvn),
                      "cannot hoist context-variant SOAC operand");
      }
      std::string name = ng.fresh("arr");
      env.bind(name, a->type());
      hoists.emplace_back(name, a);
      out.push_back(name);
    }
    return out;
  }

  static ExprP wrap_hoists(
      const std::vector<std::pair<std::string, ExprP>>& hoists, ExprP e) {
    for (auto it = hoists.rbegin(); it != hoists.rend(); ++it) {
      e = typed_let({it->first}, it->second, e);
    }
    return e;
  }

  /// Extend sigma with one level binding `params` to rows of `arrays`, and
  /// bind the params.
  SegSpace add_level(const SegSpace& sigma, std::vector<std::string> params,
                     std::vector<std::string> arrays) {
    SegBind bind;
    bind.params = std::move(params);
    bind.arrays = std::move(arrays);
    const Type& at = type_of(env, bind.arrays.at(0));
    INCFLAT_CHECK(at.rank() >= 1, "seg-space over scalar array");
    bind.dim = at.shape[0];
    for (size_t i = 0; i < bind.params.size(); ++i) {
      env.bind(bind.params[i], type_of(env, bind.arrays[i]).row());
    }
    SegSpace out = sigma;
    out.push_back(std::move(bind));
    return out;
  }

  /// If `name` is bound by the innermost binder and its source chains up
  /// through every level of sigma, return the top-level array name.
  static const std::string* chain_top(const std::string& name,
                                      const SegSpace& sigma) {
    const std::string* cur = &name;
    for (size_t k = sigma.size(); k > 0; --k) {
      const SegBind& b = sigma[k - 1];
      auto it = std::find(b.params.begin(), b.params.end(), *cur);
      if (it == b.params.end()) return nullptr;
      cur = &b.arrays[static_cast<size_t>(it - b.params.begin())];
    }
    return cur;
  }

  /// Collapse a Var (or tuple of Vars) that fully chains through sigma.
  ExprP collapse_chain(const ExprP& e, const SegSpace& sigma) const {
    auto collapse1 = [&](const ExprP& x) -> ExprP {
      auto* v = x->as<VarE>();
      if (!v) return nullptr;
      const std::string* top = chain_top(v->name, sigma);
      return top ? typed_var(env, *top) : nullptr;
    };
    if (e->is<VarE>()) return collapse1(e);
    if (auto* t = e->as<TupleE>()) {
      std::vector<ExprP> elems;
      std::vector<Type> ts;
      for (const auto& x : t->elems) {
        ExprP c = collapse1(x);
        if (!c) return nullptr;
        ts.push_back(c->type());
        elems.push_back(std::move(c));
      }
      return mk(TupleE{std::move(elems)}, std::move(ts));
    }
    return nullptr;
  }

  /// Manifest the map-nest context over a (from now on sequential) body:
  /// rules G1 and G2.
  ExprP manifest(const SegSpace& sigma, int level, const ExprP& body) {
    INCFLAT_CHECK(!sigma.empty(), "manifest with empty context");
    trace::count("flatten.manifests");
    SegOpE so;
    so.op = SegOpE::Op::Map;
    so.level = level;
    so.space = sigma;
    so.body = body;
    return typed_segop(std::move(so));
  }

  /// Thread an expanded array (`top`, with |sigma| extra outer dims) down
  /// through sigma so that `inner` is bound to its fully-peeled rows — the
  /// binding structure of rule G6 (and reused by G7).
  SegSpace chain_through(const SegSpace& sigma, const std::string& top,
                         const std::string& inner) {
    SegSpace out = sigma;
    std::string cur = top;
    for (size_t k = 0; k < out.size(); ++k) {
      const bool innermost = k + 1 == out.size();
      std::string next = innermost ? inner : ng.fresh(inner + "_c");
      out[k].params.push_back(next);
      out[k].arrays.push_back(cur);
      env.bind(next, type_of(env, cur).row());
      cur = next;
    }
    return out;
  }

  /// The body of a perfect reduce/scan nest: its element variables, or the
  /// tuple of them.
  ExprP elements(const std::vector<std::string>& names) const {
    if (names.size() == 1) return typed_var(env, names[0]);
    std::vector<ExprP> elems;
    std::vector<Type> ts;
    for (const auto& n : names) {
      elems.push_back(typed_var(env, n));
      ts.push_back(elems.back()->type());
    }
    return mk(TupleE{std::move(elems)}, std::move(ts));
  }

  // -- the transformation ---------------------------------------------------

  ExprP transform(const SegSpace& sigma, int level, const ExprP& e) {
    INCFLAT_CHECK(e != nullptr, "transform of null");

    // G0 / G1 / G2: no inner parallelism left.
    if (!has_soacs(e)) {
      if (sigma.empty()) {
        trace::count("flatten.rule.G0");
        return e;
      }
      // Identity nests: manifesting a variable that chains through every
      // context level just reproduces the underlying whole array — emit
      // that array instead of a copy kernel.
      if (ExprP collapsed = collapse_chain(e, sigma)) return collapsed;
      // G5 applies to rearranges even without inner SOACs.
      if (auto* ra = e->as<RearrangeE>()) {
        return rearrange_case(*ra, e, sigma, level);
      }
      trace::count("flatten.rule.G1");
      return manifest(sigma, level, e);
    }

    if (auto* l = e->as<LetE>()) return let_case(*l, sigma, level);
    if (auto* m = e->as<MapE>()) return map_case(*m, sigma, level);
    if (auto* s = e->as<ScanE>()) return scan_case(*s, sigma, level);
    if (auto* sm = e->as<ScanomapE>()) return scanomap_case(*sm, sigma, level);
    if (auto* r = e->as<ReduceE>()) return reduce_case(*r, sigma, level);
    if (auto* rm = e->as<RedomapE>()) {
      return redomap_case(*rm, e, sigma, level);
    }
    if (auto* lp = e->as<LoopE>()) return loop_case(*lp, e, sigma, level);
    if (auto* i = e->as<IfE>()) return if_case(*i, e, sigma, level);
    if (auto* ra = e->as<RearrangeE>()) {
      return rearrange_case(*ra, e, sigma, level);
    }
    if (auto* t = e->as<TupleE>()) {
      std::vector<ExprP> elems;
      std::vector<Type> ts;
      for (const auto& x : t->elems) {
        elems.push_back(transform(sigma, level, x));
        ts.push_back(elems.back()->type());
      }
      return mk(TupleE{std::move(elems)}, std::move(ts));
    }

    // Fallback: sequentialise under the context.
    if (sigma.empty()) return e;
    return manifest(sigma, level, e);
  }

  // G6: let-distribution.  Sequential bindings are sunk (substituted) into
  // the body; parallel bindings are flattened under sigma and their results
  // threaded through the context as expanded arrays.
  ExprP let_case(const LetE& l, const SegSpace& sigma, int level) {
    if (sigma.empty()) {
      ExprP rhs2 = transform(sigma, level, l.rhs);
      INCFLAT_CHECK(l.rhs->types.size() == l.vars.size(),
                    "let arity in flatten");
      const Scope scope(env);
      for (size_t i = 0; i < l.vars.size(); ++i) {
        env.bind(l.vars[i], l.rhs->types[i]);
      }
      ExprP body2 = transform(sigma, level, l.body);
      return typed_let(l.vars, rhs2, body2);
    }

    if (!has_soacs(l.rhs)) {
      // A sequential binding can be *sunk* into its uses (recomputed per
      // thread) when it is scalar, or array-typed but invariant to the
      // context (then any SOAC consuming it can hoist it).  Context-variant
      // array bindings must go through G6 distribution so seg-spaces can
      // reference them by name.
      const bool all_scalar = std::all_of(
          l.rhs->types.begin(), l.rhs->types.end(),
          [](const Type& t) { return t.is_scalar(); });
      bool invariant = true;
      const auto dom = space_dom(sigma);
      for (const auto& fvn : free_vars(l.rhs)) {
        if (dom.count(fvn)) {
          invariant = false;
          break;
        }
      }
      if (all_scalar || invariant) {
        std::map<std::string, ExprP> sub;
        if (l.vars.size() == 1) {
          sub[l.vars[0]] = l.rhs;
        } else if (auto* t = l.rhs->as<TupleE>()) {
          INCFLAT_CHECK(t->elems.size() == l.vars.size(), "tuple let arity");
          for (size_t i = 0; i < l.vars.size(); ++i) {
            sub[l.vars[i]] = t->elems[i];
          }
        } else {
          // Sequential multi-result rhs (e.g. a loop): distribute instead.
          return distribute_binding(l, sigma, level);
        }
        return transform(sigma, level, subst_vars(l.body, sub));
      }
      return distribute_binding(l, sigma, level);
    }

    return distribute_binding(l, sigma, level);
  }

  ExprP distribute_binding(const LetE& l, const SegSpace& sigma, int level) {
    trace::count("flatten.rule.G6");
    ExprP rhs2 = transform(sigma, level, l.rhs);
    INCFLAT_CHECK(l.rhs->types.size() == l.vars.size(),
                  "let arity in distribute");
    const std::vector<Dim> dims = space_dims(sigma);
    const Scope scope(env);
    SegSpace sigma2 = sigma;
    std::vector<std::string> tops;
    for (size_t i = 0; i < l.vars.size(); ++i) {
      std::string top = ng.fresh(l.vars[i] + "_exp");
      env.bind(top, l.rhs->types[i].expand(dims));
      sigma2 = chain_through(sigma2, top, l.vars[i]);
      tops.push_back(top);
    }
    ExprP body2 = transform(sigma2, level, l.body);
    return typed_let(tops, rhs2, body2);
  }

  // G2 / G3 (and the moderate/full recursion) at a map.
  ExprP map_case(const MapE& m, const SegSpace& sigma, int level) {
    const Scope scope(env);
    std::vector<std::pair<std::string, ExprP>> hoists;
    std::vector<std::string> arrs = ensure_vars(m.arrays, sigma, hoists);
    std::vector<std::string> params;
    for (const auto& p : m.f.params) params.push_back(p.name);
    SegSpace sigmap = add_level(sigma, params, arrs);
    const ExprP& body = m.f.body;

    if (!has_soacs(body)) {
      if (body->is<RearrangeE>()) {
        // Give rule G5 a chance to lift the rearrange out of the nest.
        return wrap_hoists(hoists, transform(sigmap, level, body));
      }
      // G2: body fully sequential; manifest the whole nest.
      trace::count("flatten.rule.G2");
      return wrap_hoists(hoists, manifest(sigmap, level, body));
    }

    if (!incremental() || level == 0) {
      // Moderate / full / intra-group: continue flattening, no versioning.
      return wrap_hoists(hoists, transform(sigmap, level, body));
    }

    // G3: three guarded versions.
    ExprP e_top = manifest(sigmap, level, body);
    const SizeExpr par_outer = par_of_space(sigmap);
    const std::string t_top = fresh_threshold("suff_outer_par");

    // e_intra: the body flattened at the next hardware level down, with an
    // empty context (one workgroup per instance of the current nest).
    ExprP e_intra_body = transform({}, level - 1, body);
    ExprP e_middle;
    ExprP cmp_intra;
    if (has_segops(e_intra_body)) {
      e_middle = manifest(sigmap, level, e_intra_body);
      SizeExpr fit_intra = max_segop_par(e_intra_body);
      SizeExpr par_middle = fit_intra.times(par_outer.alts.at(0));
      cmp_intra = typed_guard(fresh_threshold("suff_intra_par"),
                              std::move(par_middle), std::move(fit_intra));
    }

    ExprP e_flat = transform(sigmap, level, body);

    ExprP guarded;
    if (!e_middle && same_ir(e_flat, e_top)) {
      // Degenerate: no inner parallelism was actually exploitable.
      // Emit the single version, with no guard on t_top.
      trace::count("flatten.rule.G3.degenerate");
      guarded = e_top;
    } else {
      trace::count("flatten.rule.G3");
      trace::count("flatten.versions", e_middle ? 3 : 2);
      ExprP rest = e_middle ? typed_if(cmp_intra, e_middle, e_flat) : e_flat;
      ExprP cmp_top = typed_guard(t_top, par_outer, SizeExpr{});
      guarded = typed_if(cmp_top, e_top, rest);
    }
    return wrap_hoists(hoists, guarded);
  }

  // Perfect scan nest -> segscan (both modes parallelise perfect scans).
  ExprP scan_case(const ScanE& s, const SegSpace& sigma, int level) {
    check_invariant_neutral(s.neutral, sigma);
    const Scope scope(env);
    std::vector<std::pair<std::string, ExprP>> hoists;
    std::vector<std::string> arrs = ensure_vars(s.arrays, sigma, hoists);
    std::vector<std::string> params;
    for (size_t i = 0; i < arrs.size(); ++i) params.push_back(ng.fresh("e"));
    SegSpace sigmap = add_level(sigma, params, arrs);
    SegOpE so;
    so.op = SegOpE::Op::Scan;
    so.level = level;
    so.space = sigmap;
    so.combine = s.op;
    so.neutral = s.neutral;
    so.body = elements(params);
    return wrap_hoists(hoists, typed_segop(std::move(so)));
  }

  ExprP scanomap_case(const ScanomapE& s, const SegSpace& sigma, int level) {
    check_invariant_neutral(s.neutral, sigma);
    const Scope scope(env);
    std::vector<std::pair<std::string, ExprP>> hoists;
    std::vector<std::string> arrs = ensure_vars(s.arrays, sigma, hoists);
    std::vector<std::string> params;
    for (const auto& p : s.mapf.params) params.push_back(p.name);
    SegSpace sigmap = add_level(sigma, params, arrs);
    SegOpE so;
    so.op = SegOpE::Op::Scan;
    so.level = level;
    so.space = sigmap;
    so.combine = s.red;
    so.neutral = s.neutral;
    so.body = s.mapf.body;
    return wrap_hoists(hoists, typed_segop(std::move(so)));
  }

  // G4 + perfect reduce nest -> segred.
  ExprP reduce_case(const ReduceE& r, const SegSpace& sigma, int level) {
    if (ExprP g4 = try_g4(r)) {
      trace::count("flatten.rule.G4");
      return transform(sigma, level, g4);
    }
    check_invariant_neutral(r.neutral, sigma);
    const Scope scope(env);
    std::vector<std::pair<std::string, ExprP>> hoists;
    std::vector<std::string> arrs = ensure_vars(r.arrays, sigma, hoists);
    std::vector<std::string> params;
    for (size_t i = 0; i < arrs.size(); ++i) params.push_back(ng.fresh("e"));
    SegSpace sigmap = add_level(sigma, params, arrs);
    SegOpE so;
    so.op = SegOpE::Op::Red;
    so.level = level;
    so.space = sigmap;
    so.combine = r.op;
    so.neutral = r.neutral;
    so.body = elements(params);
    return wrap_hoists(hoists, typed_segop(std::move(so)));
  }

  /// G4: reduce (map g) (replicate k d) zss  ==>
  ///     map (reduce g d) (transpose zss); returns null if no match.
  ExprP try_g4(const ReduceE& r) {
    if (r.arrays.size() != 1 || r.neutral.size() != 1) return nullptr;
    auto* repl = r.neutral[0]->as<ReplicateE>();
    if (!repl) return nullptr;
    auto* inner_map = r.op.body->as<MapE>();
    if (!inner_map || r.op.params.size() != 2) return nullptr;
    // The operator must map over exactly its two formal parameters.
    if (inner_map->arrays.size() != 2) return nullptr;
    auto* a0 = inner_map->arrays[0]->as<VarE>();
    auto* a1 = inner_map->arrays[1]->as<VarE>();
    if (!a0 || !a1 || a0->name != r.op.params[0].name ||
        a1->name != r.op.params[1].name) {
      return nullptr;
    }
    std::string col = ng.fresh("col");
    ExprP rewritten = ib::map1(
        ib::lam({ib::p(col, Type())},
                ib::reduce(inner_map->f, {repl->elem}, {ib::var(col)})),
        ib::transpose(r.arrays[0]));
    return typecheck_expr(rewritten, env.bindings());
  }

  // Redomap: mode-dependent treatment (G9 under incremental flattening).
  ExprP redomap_case(const RedomapE& rm, const ExprP& e, const SegSpace& sigma,
                     int level) {
    check_invariant_neutral(rm.neutral, sigma);
    const bool inner_par = has_soacs(rm.mapf.body);

    if (mode == FlattenMode::Moderate) {
      if (!sigma.empty()) {
        // The moderate heuristic: sequentialise inner redomaps (enables
        // tiling) — manifest the whole nest.
        return manifest(sigma, level, e);
      }
      return segred_of(rm, sigma, level);
    }

    if (mode == FlattenMode::Full) {
      if (inner_par) return decompose_redomap(rm, sigma, level);
      return segred_of(rm, sigma, level);
    }

    // Incremental: the not-shown rule (no inner parallelism -> segred
    // directly), else G9.  At level 0 there is no hardware level below to
    // version against, so the redomap is decomposed unguarded.
    if (!inner_par) return segred_of(rm, sigma, level);
    if (level == 0) return decompose_redomap(rm, sigma, level);

    trace::count("flatten.rule.G9");
    trace::count("flatten.versions", 2);
    std::vector<std::pair<std::string, ExprP>> hoists;
    SegSpace sigmap;
    {
      // The top version's names; the recursive arm sees none of them.
      const Scope scope(env);
      std::vector<std::string> arrs = ensure_vars(rm.arrays, sigma, hoists);
      std::vector<std::string> params;
      for (const auto& p : rm.mapf.params) params.push_back(p.name);
      sigmap = add_level(sigma, params, arrs);
    }

    SegOpE top;
    top.op = SegOpE::Op::Red;
    top.level = level;
    top.space = sigmap;
    top.combine = rm.red;
    top.neutral = rm.neutral;
    top.body = rm.mapf.body;
    ExprP e_top = typed_segop(std::move(top));

    const std::string t = fresh_threshold("suff_outer_par");
    ExprP e_rec = decompose_redomap(rm, sigma, level);

    ExprP cmp = typed_guard(t, par_of_space(sigmap), SizeExpr{});
    return wrap_hoists(hoists, typed_if(cmp, e_top, e_rec));
  }

  /// Decompose redomap ⊕ f d̄ x̄s into `let ys = map f xs in reduce ⊕ d̄ ys`
  /// and flatten the result (G9's recursive arm).
  ExprP decompose_redomap(const RedomapE& rm, const SegSpace& sigma,
                          int level) {
    const std::vector<Type>& elem_tys = rm.mapf.body->types;
    const Dim outer = rm.arrays.at(0)->type().shape.at(0);
    std::vector<std::string> ys;
    std::vector<ExprP> yvars;
    for (const auto& t : elem_tys) {
      ys.push_back(ng.fresh("y"));
      yvars.push_back(mk(VarE{ys.back()}, {t.expand({outer})}));
    }
    ExprP ys_map = mk(MapE{rm.mapf, rm.arrays}, expand_all(elem_tys, {outer}));
    ExprP reduced = mk(ReduceE{rm.red, rm.neutral, std::move(yvars)}, elem_tys);
    ExprP decomposed = typed_let(std::move(ys), ys_map, std::move(reduced));
    return transform(sigma, level, decomposed);
  }

  ExprP segred_of(const RedomapE& rm, const SegSpace& sigma, int level) {
    const Scope scope(env);
    std::vector<std::pair<std::string, ExprP>> hoists;
    std::vector<std::string> arrs = ensure_vars(rm.arrays, sigma, hoists);
    std::vector<std::string> params;
    for (const auto& p : rm.mapf.params) params.push_back(p.name);
    SegSpace sigmap = add_level(sigma, params, arrs);
    SegOpE so;
    so.op = SegOpE::Op::Red;
    so.level = level;
    so.space = sigmap;
    so.combine = rm.red;
    so.neutral = rm.neutral;
    so.body = rm.mapf.body;
    return wrap_hoists(hoists, typed_segop(std::move(so)));
  }

  // G7: interchange a map-nest context into a loop.
  ExprP loop_case(const LoopE& lp, const ExprP& e, const SegSpace& sigma,
                  int level) {
    if (sigma.empty()) {
      // Host level: flatten the body; the loop itself stays sequential.
      const Scope scope(env);
      std::vector<Type> ptys;
      for (size_t i = 0; i < lp.params.size(); ++i) {
        ptys.push_back(lp.inits[i]->type());
        env.bind(lp.params[i], ptys.back());
      }
      env.bind(lp.ivar, Type::scalar(Scalar::I64));
      ExprP body2 = transform(sigma, level, lp.body);
      return mk(LoopE{lp.params, lp.inits, lp.ivar, lp.count, body2}, ptys);
    }

    // The loop count must be invariant to the context.
    const auto dom = space_dom(sigma);
    for (const auto& fvn : free_vars(lp.count)) {
      if (dom.count(fvn)) {
        // Cannot interchange: sequentialise the whole nest.
        return manifest(sigma, level, e);
      }
    }

    trace::count("flatten.rule.G7");
    // Every initialiser is expanded in the pre-loop environment, before
    // any loop name is bound.
    std::vector<ExprP> new_inits;
    std::vector<Type> new_tys;
    for (size_t i = 0; i < lp.params.size(); ++i) {
      new_inits.push_back(expand_init(lp.inits[i], sigma));
      new_tys.push_back(new_inits.back()->type());
    }
    const std::vector<Dim> dims = space_dims(sigma);
    const Scope scope(env);
    SegSpace sigma2 = sigma;
    std::vector<std::string> new_params;
    for (size_t i = 0; i < lp.params.size(); ++i) {
      const Type init_ty = lp.inits[i]->type();
      std::string top = ng.fresh(lp.params[i] + "_exp");
      env.bind(top, init_ty.expand(dims));
      new_params.push_back(top);
      sigma2 = chain_through(sigma2, top, lp.params[i]);
    }
    env.bind(lp.ivar, Type::scalar(Scalar::I64));
    ExprP body2 = transform(sigma2, level, lp.body);
    return mk(LoopE{new_params, new_inits, lp.ivar, lp.count, body2},
              std::move(new_tys));
  }

  /// The expansion z^r of a loop initialiser across the context (rule G7):
  /// context-bound chains resolve to the underlying whole array; invariant
  /// values are replicated over the context's dimensions.
  ExprP expand_init(const ExprP& init, const SegSpace& sigma) const {
    if (auto* v = init->as<VarE>()) {
      // Chase binder chains from the innermost level outwards.
      std::string name = v->name;
      size_t levels = sigma.size();
      while (levels > 0) {
        const SegBind& b = sigma[levels - 1];
        auto it = std::find(b.params.begin(), b.params.end(), name);
        if (it == b.params.end()) break;
        name = b.arrays[static_cast<size_t>(it - b.params.begin())];
        --levels;
      }
      // `name` must now be invariant to the remaining outer levels.
      for (size_t k = 0; k < levels; ++k) {
        const auto& b = sigma[k];
        INCFLAT_CHECK(
            std::find(b.params.begin(), b.params.end(), name) ==
                b.params.end(),
            "loop initialiser bound at a non-innermost context level");
      }
      ExprP out = typed_var(env, name);
      for (size_t k = levels; k > 0; --k) {
        out = typed_replicate(sigma[k - 1].dim, out);
      }
      return out;
    }
    // Invariant non-var initialiser: replicate over all levels.
    const auto dom = space_dom(sigma);
    for (const auto& fvn : free_vars(init)) {
      INCFLAT_CHECK(!dom.count(fvn), "context-variant loop initialiser");
    }
    ExprP out = init;
    for (size_t k = sigma.size(); k > 0; --k) {
      out = typed_replicate(sigma[k - 1].dim, out);
    }
    return out;
  }

  // G8: push the context's innermost map into invariant branches
  // (incremental and full flattening only; moderate manifests).
  ExprP if_case(const IfE& i, const ExprP& e, const SegSpace& sigma,
                int level) {
    if (sigma.empty()) {
      ExprP t = transform(sigma, level, i.then_e);
      ExprP f = transform(sigma, level, i.else_e);
      return typed_if(i.cond, t, f);
    }
    if (mode == FlattenMode::Moderate) return manifest(sigma, level, e);
    const auto dom = space_dom(sigma);
    for (const auto& fvn : free_vars(i.cond)) {
      if (dom.count(fvn)) return manifest(sigma, level, e);
    }
    // Take the innermost binder out and re-derive each branch as a map, so
    // rule G3 immediately sees the whole inner parallelism.
    trace::count("flatten.rule.G8");
    SegSpace outer(sigma.begin(), sigma.end() - 1);
    const SegBind& inner = sigma.back();
    auto remap = [&](const ExprP& branch) {
      std::vector<Param> params;
      std::vector<ExprP> arrays;
      for (size_t k = 0; k < inner.params.size(); ++k) {
        arrays.push_back(typed_var(env, inner.arrays[k]));
        params.push_back(ib::p(inner.params[k], arrays.back()->type().row()));
      }
      const Dim dim = arrays.at(0)->type().shape.at(0);
      ExprP m = mk(MapE{Lambda{params, branch}, arrays},
                   expand_all(branch->types, {dim}));
      return transform(outer, level, m);
    };
    ExprP t = remap(i.then_e);
    ExprP f = remap(i.else_e);
    return typed_if(i.cond, t, f);
  }

  // G5: rearrange of the innermost context-bound array becomes a rearrange
  // of the whole array one level up.
  ExprP rearrange_case(const RearrangeE& ra, const ExprP& e,
                       const SegSpace& sigma, int level) {
    if (sigma.empty()) return e;  // plain metadata op at host level
    auto* v = ra.e->as<VarE>();
    if (v) {
      const SegBind& inner = sigma.back();
      auto it = std::find(inner.params.begin(), inner.params.end(), v->name);
      if (it != inner.params.end()) {
        trace::count("flatten.rule.G5");
        const std::string arr =
            inner.arrays[static_cast<size_t>(it - inner.params.begin())];
        std::vector<int> perm{0};
        for (int k : ra.perm) perm.push_back(1 + k);
        SegSpace outer(sigma.begin(), sigma.end() - 1);
        ExprP lifted =
            typecheck_expr(ib::rearrange(perm, ib::var(arr)), env.bindings());
        return transform(outer, level, lifted);
      }
    }
    return manifest(sigma, level, e);
  }

  void check_invariant_neutral(const std::vector<ExprP>& neutral,
                               const SegSpace& sigma) {
    const auto dom = space_dom(sigma);
    for (const auto& n : neutral) {
      for (const auto& fvn : free_vars(n)) {
        INCFLAT_CHECK(!dom.count(fvn),
                      "context-variant neutral element unsupported");
      }
    }
  }
};

}  // namespace

ExprP transform_program(const Program& anf, FlattenMode mode) {
  Flattener fl;
  fl.mode = mode;

  for (const auto& in : anf.inputs) fl.env.bind(in.name, in.type);
  for (const auto& sp : anf.size_params()) {
    fl.env.bind(sp, Type::scalar(Scalar::I64));
  }

  // Flattening starts at the GPU grid level (l = 1) with an empty context.
  ExprP body = fl.transform({}, 1, anf.body);
  if (trace::enabled()) {
    trace::count("flatten.thresholds",
                 static_cast<int64_t>(ThresholdRegistry(body).size()));
  }
  return body;
}

}  // namespace incflat
