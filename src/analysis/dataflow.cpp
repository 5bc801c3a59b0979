#include "src/analysis/dataflow.h"

#include "src/ir/traverse.h"

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

  void walk(const ExprP& e) {  // NOLINT(misc-no-recursion)
    if (!e) return;
    if (auto* v = e->as<VarE>()) {
      use(v->name);
    } else if (auto* rp = e->as<ReplicateE>()) {
      use_dim(rp->count);
    } else if (auto* io = e->as<IotaE>()) {
      use_dim(io->count);
    } else if (auto* so = e->as<SegOpE>()) {
      for (const auto& lvl : so->space) {
        for (const auto& a : lvl.arrays) use(a);
        use_dim(lvl.dim);
        for (const auto& p : lvl.params) def(p, DefKind::SegParam);
      }
    } else if (auto* tc = e->as<ThresholdCmpE>()) {
      // Threshold parameters live in their own namespace (the registry),
      // not the value environment; the size variables inside par/fit are
      // dataset bindings, counted as uses so bounds declarations stay live.
      for (const auto& alt : tc->par.alts) {
        for (const auto& d : alt.vars) use_dim(d);
      }
      for (const auto& alt : tc->fit.alts) {
        for (const auto& d : alt.vars) use_dim(d);
      }
    }
    // Each child's binders are defined just before it is walked; seg-space
    // params were defined level by level above.
    for_each_child(*e, [&](const Child& c) {
      const Binders& b = c.binds;
      for (const auto& v : b.vars) {
        def(v, b.ivar ? DefKind::LoopParam : DefKind::Let);
      }
      if (b.ivar) def(*b.ivar, DefKind::LoopIndex);
      for (const auto& p : b.params) {
        def(p.name, c.step == Step::SegCombine ? DefKind::CombineParam
                                               : DefKind::LambdaParam);
      }
      walk(c.expr);
    });
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
