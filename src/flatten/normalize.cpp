#include "src/flatten/normalize.h"

#include <utility>
#include <vector>

#include "src/ir/builder.h"
#include "src/ir/traverse.h"
#include "src/support/error.h"

namespace incflat {

namespace {

using Binds = std::vector<std::pair<std::string, ExprP>>;

struct Normalizer {
  ib::NameGen ng;

  /// Normalise a subexpression in *scalar operand position*: if it contains
  /// parallelism, emit a binding and return the bound variable.
  ExprP operand(const ExprP& e, Binds& binds) {
    ExprP n = norm(e);
    if (!has_soacs(n)) return n;
    std::string v = ng.fresh("anf");
    ExprP ref = mk(VarE{v}, n->types);
    binds.emplace_back(std::move(v), std::move(n));
    return ref;
  }

  std::vector<ExprP> operands(const std::vector<ExprP>& es, Binds& binds) {
    std::vector<ExprP> out;
    out.reserve(es.size());
    for (const auto& e : es) out.push_back(operand(e, binds));
    return out;
  }

  /// `e` under the bindings, each `let` typed as `e`.
  static ExprP wrap(const Binds& binds, ExprP e) {
    for (auto it = binds.rbegin(); it != binds.rend(); ++it) {
      std::vector<Type> ts = e->types;
      e = mk(LetE{{it->first}, it->second, std::move(e)}, std::move(ts));
    }
    return e;
  }

  Lambda norm_lambda(const Lambda& l) {
    return Lambda{l.params, norm(l.body)};
  }

  std::vector<ExprP> norm_list(const std::vector<ExprP>& es) {
    std::vector<ExprP> out;
    out.reserve(es.size());
    for (const auto& e : es) out.push_back(norm(e));
    return out;
  }

  ExprP norm(const ExprP& e) {
    if (!e) return e;
    if (e->is<VarE>() || e->is<ConstE>() || e->is<IotaE>() ||
        e->is<ThresholdCmpE>()) {
      return e;
    }
    // Every rebuilt node keeps e's types: normalisation changes no result.
    auto keep = [&e](ExprNode n) { return mk(std::move(n), e->types); };
    if (auto* b = e->as<BinOpE>()) {
      Binds binds;
      ExprP l = operand(b->lhs, binds), r = operand(b->rhs, binds);
      return wrap(binds, keep(BinOpE{b->op, l, r}));
    }
    if (auto* u = e->as<UnOpE>()) {
      Binds binds;
      ExprP x = operand(u->e, binds);
      return wrap(binds, keep(UnOpE{u->op, x}));
    }
    if (auto* i = e->as<IfE>()) {
      Binds binds;
      ExprP c = operand(i->cond, binds);
      return wrap(binds, keep(IfE{c, norm(i->then_e), norm(i->else_e)}));
    }
    if (auto* l = e->as<LetE>()) {
      return keep(LetE{l->vars, norm(l->rhs), norm(l->body)});
    }
    if (auto* lp = e->as<LoopE>()) {
      Binds binds;
      std::vector<ExprP> inits = operands(lp->inits, binds);
      ExprP count = operand(lp->count, binds);
      return wrap(binds, keep(LoopE{lp->params, inits, lp->ivar, count,
                                    norm(lp->body)}));
    }
    if (auto* m = e->as<MapE>()) {
      Binds binds;
      Lambda f = norm_lambda(m->f);
      std::vector<ExprP> arrays = operands(m->arrays, binds);
      return wrap(binds, keep(MapE{std::move(f), std::move(arrays)}));
    }
    if (auto* r = e->as<ReduceE>()) {
      Binds binds;
      std::vector<ExprP> neutral = operands(r->neutral, binds);
      Lambda op = norm_lambda(r->op);
      std::vector<ExprP> arrays = operands(r->arrays, binds);
      return wrap(binds, keep(ReduceE{std::move(op), std::move(neutral),
                                      std::move(arrays)}));
    }
    if (auto* s = e->as<ScanE>()) {
      Binds binds;
      std::vector<ExprP> neutral = operands(s->neutral, binds);
      Lambda op = norm_lambda(s->op);
      std::vector<ExprP> arrays = operands(s->arrays, binds);
      return wrap(binds, keep(ScanE{std::move(op), std::move(neutral),
                                    std::move(arrays)}));
    }
    if (auto* rm = e->as<RedomapE>()) {
      Binds binds;
      std::vector<ExprP> neutral = operands(rm->neutral, binds);
      Lambda red = norm_lambda(rm->red);
      Lambda mapf = norm_lambda(rm->mapf);
      std::vector<ExprP> arrays = operands(rm->arrays, binds);
      return wrap(binds, keep(RedomapE{std::move(red), std::move(mapf),
                                       std::move(neutral), std::move(arrays)}));
    }
    if (auto* sm = e->as<ScanomapE>()) {
      Binds binds;
      std::vector<ExprP> neutral = operands(sm->neutral, binds);
      Lambda red = norm_lambda(sm->red);
      Lambda mapf = norm_lambda(sm->mapf);
      std::vector<ExprP> arrays = operands(sm->arrays, binds);
      return wrap(binds,
                  keep(ScanomapE{std::move(red), std::move(mapf),
                                 std::move(neutral), std::move(arrays)}));
    }
    if (auto* rp = e->as<ReplicateE>()) {
      Binds binds;
      ExprP x = operand(rp->elem, binds);
      return wrap(binds, keep(ReplicateE{rp->count, x}));
    }
    if (auto* ra = e->as<RearrangeE>()) {
      return keep(RearrangeE{ra->perm, norm(ra->e)});
    }
    if (auto* ix = e->as<IndexE>()) {
      Binds binds;
      ExprP arr = operand(ix->arr, binds);
      std::vector<ExprP> idxs = operands(ix->idxs, binds);
      return wrap(binds, keep(IndexE{arr, idxs}));
    }
    if (auto* t = e->as<TupleE>()) {
      return keep(TupleE{norm_list(t->elems)});
    }
    INCFLAT_FAIL("normalize: unhandled node");
  }
};

}  // namespace

ExprP normalize_expr(const ExprP& e) {
  Normalizer n;
  return n.norm(e);
}

Program normalize_program(Program p) {
  p.body = normalize_expr(p.body);
  return p;
}

}  // namespace incflat
