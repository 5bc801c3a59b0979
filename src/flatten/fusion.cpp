#include "src/flatten/fusion.h"

#include <algorithm>

#include "src/ir/traverse.h"
#include "src/support/error.h"

namespace incflat {

namespace {

/// Do `arrays` reference exactly the variables `vars`, in order?
bool arrays_are_vars(const std::vector<ExprP>& arrays,
                     const std::vector<std::string>& vars) {
  if (arrays.size() != vars.size()) return false;
  for (size_t i = 0; i < arrays.size(); ++i) {
    auto* v = arrays[i]->as<VarE>();
    if (!v || v->name != vars[i]) return false;
  }
  return true;
}

bool any_var_free(const std::vector<std::string>& vars, const ExprP& e) {
  const auto fv = free_vars(e);
  return std::any_of(vars.begin(), vars.end(),
                     [&](const std::string& v) { return fv.count(v) > 0; });
}

/// Try to fuse `let vars = map f xs in consumer`; returns null on no match.
/// The fused node computes the consumer's results, so it takes its types.
ExprP try_fuse_let(const std::vector<std::string>& vars, const MapE& producer,
                   const ExprP& consumer) {
  // Direct consumer: reduce/scan over exactly the produced arrays.
  if (auto* r = consumer->as<ReduceE>()) {
    if (arrays_are_vars(r->arrays, vars)) {
      return mk(RedomapE{r->op, producer.f, r->neutral, producer.arrays},
                consumer->types);
    }
  }
  if (auto* s = consumer->as<ScanE>()) {
    if (arrays_are_vars(s->arrays, vars)) {
      return mk(ScanomapE{s->op, producer.f, s->neutral, producer.arrays},
                consumer->types);
    }
  }
  // Interposed let: `let zs = reduce ... vars in rest`, vars dead in rest.
  if (auto* l = consumer->as<LetE>()) {
    if (!any_var_free(vars, l->body)) {
      ExprP fused_rhs = try_fuse_let(vars, producer, l->rhs);
      if (fused_rhs) {
        return mk(LetE{l->vars, fused_rhs, l->body}, consumer->types);
      }
    }
  }
  return nullptr;
}

ExprP fuse(const ExprP& e) {
  if (!e) return e;
  ExprP out = map_children(e, [](const Child& c) { return fuse(c.expr); });
  if (auto* l = out->as<LetE>()) {
    if (auto* m = l->rhs->as<MapE>()) {
      if (ExprP fused = try_fuse_let(l->vars, *m, l->body)) return fused;
    }
  }
  return out;
}

}  // namespace

ExprP fuse_expr(const ExprP& e) { return fuse(e); }

Program fuse_program(Program p) {
  p.body = fuse(p.body);
  return p;
}

int64_t count_fused(const ExprP& e) {
  if (!e) return 0;
  int64_t n = e->is<RedomapE>() || e->is<ScanomapE>() ? 1 : 0;
  for_each_child(*e, [&](const Child& c) { n += count_fused(c.expr); });
  return n;
}

}  // namespace incflat
