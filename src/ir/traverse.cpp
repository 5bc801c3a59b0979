#include "src/ir/traverse.h"

#include <algorithm>

#include "src/support/error.h"

namespace incflat {

namespace {

void fv(const ExprP& e, std::set<std::string>& bound,
        std::set<std::string>& out);

void fv_dim(const Dim& d, std::set<std::string>& bound,
            std::set<std::string>& out) {
  if (!d.is_const() && !bound.count(d.var)) out.insert(d.var);
}

void fv_lambda(const Lambda& l, std::set<std::string> bound,
               std::set<std::string>& out) {
  for (const auto& p : l.params) bound.insert(p.name);
  fv(l.body, bound, out);
}

void fv(const ExprP& e, std::set<std::string>& bound,
        std::set<std::string>& out) {
  if (!e) return;
  if (auto* v = e->as<VarE>()) {
    if (!bound.count(v->name)) out.insert(v->name);
  } else if (e->is<ConstE>()) {
    // nothing
  } else if (auto* b = e->as<BinOpE>()) {
    fv(b->lhs, bound, out);
    fv(b->rhs, bound, out);
  } else if (auto* u = e->as<UnOpE>()) {
    fv(u->e, bound, out);
  } else if (auto* i = e->as<IfE>()) {
    fv(i->cond, bound, out);
    fv(i->then_e, bound, out);
    fv(i->else_e, bound, out);
  } else if (auto* l = e->as<LetE>()) {
    fv(l->rhs, bound, out);
    auto b2 = bound;
    for (const auto& v : l->vars) b2.insert(v);
    fv(l->body, b2, out);
  } else if (auto* lp = e->as<LoopE>()) {
    for (const auto& in : lp->inits) fv(in, bound, out);
    fv(lp->count, bound, out);
    auto b2 = bound;
    for (const auto& p : lp->params) b2.insert(p);
    b2.insert(lp->ivar);
    fv(lp->body, b2, out);
  } else if (auto* m = e->as<MapE>()) {
    for (const auto& a : m->arrays) fv(a, bound, out);
    fv_lambda(m->f, bound, out);
  } else if (auto* r = e->as<ReduceE>()) {
    for (const auto& a : r->neutral) fv(a, bound, out);
    for (const auto& a : r->arrays) fv(a, bound, out);
    fv_lambda(r->op, bound, out);
  } else if (auto* s = e->as<ScanE>()) {
    for (const auto& a : s->neutral) fv(a, bound, out);
    for (const auto& a : s->arrays) fv(a, bound, out);
    fv_lambda(s->op, bound, out);
  } else if (auto* rm = e->as<RedomapE>()) {
    for (const auto& a : rm->neutral) fv(a, bound, out);
    for (const auto& a : rm->arrays) fv(a, bound, out);
    fv_lambda(rm->red, bound, out);
    fv_lambda(rm->mapf, bound, out);
  } else if (auto* sm = e->as<ScanomapE>()) {
    for (const auto& a : sm->neutral) fv(a, bound, out);
    for (const auto& a : sm->arrays) fv(a, bound, out);
    fv_lambda(sm->red, bound, out);
    fv_lambda(sm->mapf, bound, out);
  } else if (auto* rp = e->as<ReplicateE>()) {
    fv_dim(rp->count, bound, out);
    fv(rp->elem, bound, out);
  } else if (auto* ra = e->as<RearrangeE>()) {
    fv(ra->e, bound, out);
  } else if (auto* io = e->as<IotaE>()) {
    fv_dim(io->count, bound, out);
  } else if (auto* ix = e->as<IndexE>()) {
    fv(ix->arr, bound, out);
    for (const auto& i2 : ix->idxs) fv(i2, bound, out);
  } else if (auto* t = e->as<TupleE>()) {
    for (const auto& x : t->elems) fv(x, bound, out);
  } else if (auto* so = e->as<SegOpE>()) {
    auto b2 = bound;
    for (const auto& lvl : so->space) {
      for (const auto& a : lvl.arrays) {
        if (!b2.count(a)) out.insert(a);
      }
      fv_dim(lvl.dim, b2, out);
      for (const auto& pn : lvl.params) b2.insert(pn);
    }
    for (const auto& n : so->neutral) fv(n, bound, out);
    if (so->op != SegOpE::Op::Map) fv_lambda(so->combine, b2, out);
    fv(so->body, b2, out);
  } else if (auto* tc = e->as<ThresholdCmpE>()) {
    for (const auto& alt : tc->par.alts) {
      for (const auto& d : alt.vars) fv_dim(d, bound, out);
    }
  } else {
    INCFLAT_FAIL("free_vars: unhandled node");
  }
}

template <typename Pred>
bool any_node(const ExprP& e, Pred pred);

template <typename Pred>
bool any_lambda(const Lambda& l, Pred pred) {
  return any_node(l.body, pred);
}

template <typename Pred>
bool any_list(const std::vector<ExprP>& es, Pred pred) {
  return std::any_of(es.begin(), es.end(),
                     [&](const ExprP& x) { return any_node(x, pred); });
}

template <typename Pred>
bool any_node(const ExprP& e, Pred pred) {
  if (!e) return false;
  if (pred(*e)) return true;
  if (auto* b = e->as<BinOpE>()) {
    return any_node(b->lhs, pred) || any_node(b->rhs, pred);
  }
  if (auto* u = e->as<UnOpE>()) return any_node(u->e, pred);
  if (auto* i = e->as<IfE>()) {
    return any_node(i->cond, pred) || any_node(i->then_e, pred) ||
           any_node(i->else_e, pred);
  }
  if (auto* l = e->as<LetE>()) {
    return any_node(l->rhs, pred) || any_node(l->body, pred);
  }
  if (auto* lp = e->as<LoopE>()) {
    return any_list(lp->inits, pred) || any_node(lp->count, pred) ||
           any_node(lp->body, pred);
  }
  if (auto* m = e->as<MapE>()) {
    return any_list(m->arrays, pred) || any_lambda(m->f, pred);
  }
  if (auto* r = e->as<ReduceE>()) {
    return any_list(r->neutral, pred) || any_list(r->arrays, pred) ||
           any_lambda(r->op, pred);
  }
  if (auto* s = e->as<ScanE>()) {
    return any_list(s->neutral, pred) || any_list(s->arrays, pred) ||
           any_lambda(s->op, pred);
  }
  if (auto* rm = e->as<RedomapE>()) {
    return any_list(rm->neutral, pred) || any_list(rm->arrays, pred) ||
           any_lambda(rm->red, pred) || any_lambda(rm->mapf, pred);
  }
  if (auto* sm = e->as<ScanomapE>()) {
    return any_list(sm->neutral, pred) || any_list(sm->arrays, pred) ||
           any_lambda(sm->red, pred) || any_lambda(sm->mapf, pred);
  }
  if (auto* rp = e->as<ReplicateE>()) return any_node(rp->elem, pred);
  if (auto* ra = e->as<RearrangeE>()) return any_node(ra->e, pred);
  if (e->is<IotaE>()) return false;
  if (auto* ix = e->as<IndexE>()) {
    return any_node(ix->arr, pred) || any_list(ix->idxs, pred);
  }
  if (auto* t = e->as<TupleE>()) return any_list(t->elems, pred);
  if (auto* so = e->as<SegOpE>()) {
    return any_list(so->neutral, pred) || any_node(so->body, pred) ||
           (so->op != SegOpE::Op::Map && any_lambda(so->combine, pred));
  }
  return false;  // Var, Const, ThresholdCmp
}

}  // namespace

std::set<std::string> free_vars(const ExprP& e) {
  std::set<std::string> bound, out;
  fv(e, bound, out);
  return out;
}

bool has_soacs(const ExprP& e) {
  return any_node(e, [](const Expr& x) {
    return x.is<MapE>() || x.is<ReduceE>() || x.is<ScanE>() ||
           x.is<RedomapE>() || x.is<ScanomapE>() || x.is<SegOpE>();
  });
}

namespace {

Lambda rename_lambda(const Lambda& l,
                     std::map<std::string, std::string> sub) {
  for (const auto& p : l.params) sub.erase(p.name);
  return Lambda{l.params, rename(l.body, sub)};
}

std::vector<ExprP> rename_list(const std::vector<ExprP>& es,
                               const std::map<std::string, std::string>& sub) {
  std::vector<ExprP> out;
  out.reserve(es.size());
  for (const auto& e : es) out.push_back(rename(e, sub));
  return out;
}

Dim rename_dim(const Dim& d, const std::map<std::string, std::string>& sub) {
  if (d.is_const()) return d;
  auto it = sub.find(d.var);
  return it == sub.end() ? d : Dim::v(it->second);
}

}  // namespace

ExprP rename(const ExprP& e, const std::map<std::string, std::string>& sub) {
  if (!e || sub.empty()) return e;
  if (auto* v = e->as<VarE>()) {
    auto it = sub.find(v->name);
    if (it == sub.end()) return e;
    return mk(VarE{it->second}, e->types);
  }
  if (e->is<ConstE>()) return e;
  if (auto* b = e->as<BinOpE>()) {
    return mk(BinOpE{b->op, rename(b->lhs, sub), rename(b->rhs, sub)},
              e->types);
  }
  if (auto* u = e->as<UnOpE>()) {
    return mk(UnOpE{u->op, rename(u->e, sub)}, e->types);
  }
  if (auto* i = e->as<IfE>()) {
    return mk(IfE{rename(i->cond, sub), rename(i->then_e, sub),
                  rename(i->else_e, sub)},
              e->types);
  }
  if (auto* l = e->as<LetE>()) {
    auto sub2 = sub;
    for (const auto& v : l->vars) sub2.erase(v);
    return mk(LetE{l->vars, rename(l->rhs, sub), rename(l->body, sub2)},
              e->types);
  }
  if (auto* lp = e->as<LoopE>()) {
    auto sub2 = sub;
    for (const auto& p : lp->params) sub2.erase(p);
    sub2.erase(lp->ivar);
    return mk(LoopE{lp->params, rename_list(lp->inits, sub), lp->ivar,
                    rename(lp->count, sub), rename(lp->body, sub2)},
              e->types);
  }
  if (auto* m = e->as<MapE>()) {
    return mk(MapE{rename_lambda(m->f, sub), rename_list(m->arrays, sub)},
              e->types);
  }
  if (auto* r = e->as<ReduceE>()) {
    return mk(ReduceE{rename_lambda(r->op, sub), rename_list(r->neutral, sub),
                      rename_list(r->arrays, sub)},
              e->types);
  }
  if (auto* s = e->as<ScanE>()) {
    return mk(ScanE{rename_lambda(s->op, sub), rename_list(s->neutral, sub),
                    rename_list(s->arrays, sub)},
              e->types);
  }
  if (auto* rm = e->as<RedomapE>()) {
    return mk(RedomapE{rename_lambda(rm->red, sub),
                       rename_lambda(rm->mapf, sub),
                       rename_list(rm->neutral, sub),
                       rename_list(rm->arrays, sub)},
              e->types);
  }
  if (auto* sm = e->as<ScanomapE>()) {
    return mk(ScanomapE{rename_lambda(sm->red, sub),
                        rename_lambda(sm->mapf, sub),
                        rename_list(sm->neutral, sub),
                        rename_list(sm->arrays, sub)},
              e->types);
  }
  if (auto* rp = e->as<ReplicateE>()) {
    return mk(ReplicateE{rename_dim(rp->count, sub), rename(rp->elem, sub)},
              e->types);
  }
  if (auto* ra = e->as<RearrangeE>()) {
    return mk(RearrangeE{ra->perm, rename(ra->e, sub)}, e->types);
  }
  if (auto* io = e->as<IotaE>()) {
    return mk(IotaE{rename_dim(io->count, sub)}, e->types);
  }
  if (auto* ix = e->as<IndexE>()) {
    return mk(IndexE{rename(ix->arr, sub), rename_list(ix->idxs, sub)},
              e->types);
  }
  if (auto* t = e->as<TupleE>()) {
    return mk(TupleE{rename_list(t->elems, sub)}, e->types);
  }
  if (auto* so = e->as<SegOpE>()) {
    SegOpE out = *so;
    auto sub2 = sub;
    for (auto& lvl : out.space) {
      for (auto& a : lvl.arrays) {
        auto it = sub2.find(a);
        if (it != sub2.end()) a = it->second;
      }
      lvl.dim = rename_dim(lvl.dim, sub2);
      for (const auto& pn : lvl.params) sub2.erase(pn);
    }
    out.neutral = rename_list(so->neutral, sub);
    if (so->op != SegOpE::Op::Map) out.combine = rename_lambda(so->combine, sub2);
    out.body = rename(so->body, sub2);
    return mk(std::move(out), e->types);
  }
  if (e->is<ThresholdCmpE>()) return e;
  INCFLAT_FAIL("rename: unhandled node");
}

namespace {

// subst_vars is rename with expression-valued targets; implemented by
// rewriting the substitution through rename's structure via a var-to-var
// fast path plus a generic walk.
Lambda subst_lambda(const Lambda& l, std::map<std::string, ExprP> sub) {
  for (const auto& p : l.params) sub.erase(p.name);
  return Lambda{l.params, subst_vars(l.body, sub)};
}

std::vector<ExprP> subst_list(const std::vector<ExprP>& es,
                              const std::map<std::string, ExprP>& sub) {
  std::vector<ExprP> out;
  out.reserve(es.size());
  for (const auto& e : es) out.push_back(subst_vars(e, sub));
  return out;
}

}  // namespace

ExprP subst_vars(const ExprP& e, const std::map<std::string, ExprP>& sub) {
  if (!e || sub.empty()) return e;
  if (auto* v = e->as<VarE>()) {
    auto it = sub.find(v->name);
    return it == sub.end() ? e : it->second;
  }
  if (e->is<ConstE>() || e->is<IotaE>() || e->is<ThresholdCmpE>()) return e;
  if (auto* b = e->as<BinOpE>()) {
    return mk(BinOpE{b->op, subst_vars(b->lhs, sub), subst_vars(b->rhs, sub)},
              e->types);
  }
  if (auto* u = e->as<UnOpE>()) {
    return mk(UnOpE{u->op, subst_vars(u->e, sub)}, e->types);
  }
  if (auto* i = e->as<IfE>()) {
    return mk(IfE{subst_vars(i->cond, sub), subst_vars(i->then_e, sub),
                  subst_vars(i->else_e, sub)},
              e->types);
  }
  if (auto* l = e->as<LetE>()) {
    auto sub2 = sub;
    for (const auto& v : l->vars) sub2.erase(v);
    return mk(LetE{l->vars, subst_vars(l->rhs, sub), subst_vars(l->body, sub2)},
              e->types);
  }
  if (auto* lp = e->as<LoopE>()) {
    auto sub2 = sub;
    for (const auto& p : lp->params) sub2.erase(p);
    sub2.erase(lp->ivar);
    return mk(LoopE{lp->params, subst_list(lp->inits, sub), lp->ivar,
                    subst_vars(lp->count, sub), subst_vars(lp->body, sub2)},
              e->types);
  }
  if (auto* m = e->as<MapE>()) {
    return mk(MapE{subst_lambda(m->f, sub), subst_list(m->arrays, sub)},
              e->types);
  }
  if (auto* r = e->as<ReduceE>()) {
    return mk(ReduceE{subst_lambda(r->op, sub), subst_list(r->neutral, sub),
                      subst_list(r->arrays, sub)},
              e->types);
  }
  if (auto* s = e->as<ScanE>()) {
    return mk(ScanE{subst_lambda(s->op, sub), subst_list(s->neutral, sub),
                    subst_list(s->arrays, sub)},
              e->types);
  }
  if (auto* rm = e->as<RedomapE>()) {
    return mk(RedomapE{subst_lambda(rm->red, sub), subst_lambda(rm->mapf, sub),
                       subst_list(rm->neutral, sub),
                       subst_list(rm->arrays, sub)},
              e->types);
  }
  if (auto* sm = e->as<ScanomapE>()) {
    return mk(ScanomapE{subst_lambda(sm->red, sub),
                        subst_lambda(sm->mapf, sub),
                        subst_list(sm->neutral, sub),
                        subst_list(sm->arrays, sub)},
              e->types);
  }
  if (auto* rp = e->as<ReplicateE>()) {
    return mk(ReplicateE{rp->count, subst_vars(rp->elem, sub)}, e->types);
  }
  if (auto* ra = e->as<RearrangeE>()) {
    return mk(RearrangeE{ra->perm, subst_vars(ra->e, sub)}, e->types);
  }
  if (auto* ix = e->as<IndexE>()) {
    return mk(IndexE{subst_vars(ix->arr, sub), subst_list(ix->idxs, sub)},
              e->types);
  }
  if (auto* t = e->as<TupleE>()) {
    return mk(TupleE{subst_list(t->elems, sub)}, e->types);
  }
  if (e->is<SegOpE>()) {
    // Seg-ops reference arrays by *name* in their space, so expression
    // substitution cannot be applied; the flattening pass never sinks
    // bindings into already-flattened code.
    INCFLAT_FAIL("subst_vars: cannot substitute into a seg-op");
  }
  INCFLAT_FAIL("subst_vars: unhandled node");
}

namespace {

int64_t count_nodes_impl(const ExprP& e) {
  int64_t n = 0;
  any_node(e, [&](const Expr&) {
    ++n;
    return false;  // never match, so the walk visits everything
  });
  return n;
}

}  // namespace

int64_t count_nodes(const ExprP& e) { return count_nodes_impl(e); }

int64_t count_segops(const ExprP& e) {
  int64_t n = 0;
  any_node(e, [&](const Expr& x) {
    if (x.is<SegOpE>()) ++n;
    return false;
  });
  return n;
}

std::vector<std::string> collect_thresholds(const ExprP& e) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  any_node(e, [&](const Expr& x) {
    if (auto* tc = x.as<ThresholdCmpE>()) {
      if (seen.insert(tc->threshold).second) out.push_back(tc->threshold);
    }
    return false;
  });
  return out;
}

}  // namespace incflat
