#include "src/analysis/dataflow.h"

namespace incflat {
namespace analysis {

const char* def_kind_name(DefKind k) {
  switch (k) {
    case DefKind::Input: return "input";
    case DefKind::SizeParam: return "size-param";
    case DefKind::Let: return "let";
    case DefKind::LoopParam: return "loop-param";
    case DefKind::LoopIndex: return "loop-index";
    case DefKind::LambdaParam: return "lambda-param";
    case DefKind::SegParam: return "seg-param";
    case DefKind::CombineParam: return "combine-param";
  }
  return "?";
}

namespace {

struct DefUseBuilder {
  DefUse& out;

  void def(const std::string& name, DefKind kind) {
    auto [it, fresh] = out.defs.emplace(name, DefInfo{kind, 0});
    if (!fresh) it->second.kind = kind;  // shadowing: last definition wins
  }

  void use(const std::string& name) {
    auto it = out.defs.find(name);
    if (it != out.defs.end()) ++it->second.uses;
  }

  void use_dim(const Dim& d) {
    if (!d.is_const()) use(d.var);
  }

  void use_type(const Type& t) {
    for (const auto& d : t.shape) use_dim(d);
  }

  void lambda(const Lambda& f, DefKind kind) {
    for (const auto& p : f.params) def(p.name, kind);
    walk(f.body);
  }

  void walk_all(const std::vector<ExprP>& es) {
    for (const auto& x : es) walk(x);
  }

  void walk(const ExprP& e) {  // NOLINT(misc-no-recursion)
    if (!e) return;
    if (auto* v = e->as<VarE>()) {
      use(v->name);
    } else if (e->is<ConstE>()) {
      // leaf
    } else if (auto* b = e->as<BinOpE>()) {
      walk(b->lhs);
      walk(b->rhs);
    } else if (auto* u = e->as<UnOpE>()) {
      walk(u->e);
    } else if (auto* i = e->as<IfE>()) {
      walk(i->cond);
      walk(i->then_e);
      walk(i->else_e);
    } else if (auto* l = e->as<LetE>()) {
      walk(l->rhs);
      for (const auto& v : l->vars) def(v, DefKind::Let);
      walk(l->body);
    } else if (auto* lp = e->as<LoopE>()) {
      walk_all(lp->inits);
      walk(lp->count);
      for (const auto& p : lp->params) def(p, DefKind::LoopParam);
      def(lp->ivar, DefKind::LoopIndex);
      walk(lp->body);
    } else if (auto* m = e->as<MapE>()) {
      walk_all(m->arrays);
      lambda(m->f, DefKind::LambdaParam);
    } else if (auto* r = e->as<ReduceE>()) {
      walk_all(r->neutral);
      walk_all(r->arrays);
      lambda(r->op, DefKind::LambdaParam);
    } else if (auto* s = e->as<ScanE>()) {
      walk_all(s->neutral);
      walk_all(s->arrays);
      lambda(s->op, DefKind::LambdaParam);
    } else if (auto* rm = e->as<RedomapE>()) {
      walk_all(rm->neutral);
      walk_all(rm->arrays);
      lambda(rm->red, DefKind::LambdaParam);
      lambda(rm->mapf, DefKind::LambdaParam);
    } else if (auto* sm = e->as<ScanomapE>()) {
      walk_all(sm->neutral);
      walk_all(sm->arrays);
      lambda(sm->red, DefKind::LambdaParam);
      lambda(sm->mapf, DefKind::LambdaParam);
    } else if (auto* rp = e->as<ReplicateE>()) {
      use_dim(rp->count);
      walk(rp->elem);
    } else if (auto* ra = e->as<RearrangeE>()) {
      walk(ra->e);
    } else if (auto* io = e->as<IotaE>()) {
      use_dim(io->count);
    } else if (auto* ix = e->as<IndexE>()) {
      walk(ix->arr);
      walk_all(ix->idxs);
    } else if (auto* t = e->as<TupleE>()) {
      walk_all(t->elems);
    } else if (auto* so = e->as<SegOpE>()) {
      for (const auto& lvl : so->space) {
        for (const auto& a : lvl.arrays) use(a);
        use_dim(lvl.dim);
        for (const auto& p : lvl.params) def(p, DefKind::SegParam);
      }
      walk_all(so->neutral);
      if (so->op != SegOpE::Op::Map) {
        lambda(so->combine, DefKind::CombineParam);
      }
      walk(so->body);
    } else if (e->is<ThresholdCmpE>()) {
      // Threshold parameters live in their own namespace (the registry),
      // not the value environment; the size variables inside par/fit are
      // dataset bindings, counted as uses so bounds declarations stay live.
      auto* tc = e->as<ThresholdCmpE>();
      for (const auto& alt : tc->par.alts) {
        for (const auto& d : alt.vars) use_dim(d);
      }
      for (const auto& alt : tc->fit.alts) {
        for (const auto& d : alt.vars) use_dim(d);
      }
    }
  }
};

}  // namespace

DefUse def_use(const Program& p) {
  DefUse du;
  DefUseBuilder b{du};
  for (const auto& sp : p.size_params()) b.def(sp, DefKind::SizeParam);
  for (const auto& in : p.inputs) {
    b.def(in.name, DefKind::Input);
    b.use_type(in.type);
  }
  b.walk(p.body);
  return du;
}

std::vector<std::string> dead_defs(const DefUse& du) {
  std::vector<std::string> out;
  for (const auto& [name, info] : du.defs) {
    if (info.uses > 0) continue;
    if (info.kind == DefKind::Input || info.kind == DefKind::SizeParam) {
      continue;
    }
    out.push_back(name);
  }
  return out;
}

}  // namespace analysis
}  // namespace incflat
