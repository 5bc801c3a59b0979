#include "src/flatten/prune.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/traverse.h"

namespace incflat {

namespace {

/// One bottom-up rebuild that resolves every use of a name to its binder.
/// The binders around the node being walked sit on one stack, newest last,
/// and a use — a variable, a size variable in a dimension, or the array of
/// a seg-space binding — counts against the newest binder of its name, so
/// each seg-op knows which of its parameters its body and combine operator
/// use when the walk returns from them, without walking them again.
class Pruner {
 public:
  ExprP walk(const ExprP& e);  // NOLINT(misc-no-recursion)

 private:
  struct Binder {
    const std::string* name;
    int uses = 0;
  };
  std::vector<Binder> scope_;

  void bind(const std::string& name) { scope_.push_back({&name}); }

  /// Counts a use of `name` against its newest binder among the first
  /// `end`; a name bound by none of them is free in the walked program.
  void use(const std::string& name, size_t end) {
    for (size_t k = end; k-- > 0;) {
      if (*scope_[k].name == name) {
        ++scope_[k].uses;
        return;
      }
    }
  }
  void use(const Dim& d, size_t end) {
    if (!d.is_const()) use(d.var, end);
  }

  ExprP prune_segop(const ExprP& e, const SegOpE& so, size_t params_at);
};

/// Drops the bindings of `so` (e's payload, rebuilt from pruned children)
/// whose parameters are used neither by the body or combine operator nor
/// as the array of a kept deeper binding; `e` itself when it drops none.
/// The parameters sit on the stack from `params_at`, outer level first,
/// with their uses counted.  Innermost level first, a kept parameter
/// counts as one use of its array, resolved among the outer levels and the
/// enclosing binders; the levels' dimensions are uses of those too.  Pops
/// the parameters.
ExprP Pruner::prune_segop(const ExprP& e, const SegOpE& so, size_t params_at) {
  // (level, position) of each dropped binding, innermost level first.
  std::vector<std::pair<size_t, size_t>> dropped;
  size_t end = scope_.size();
  for (size_t k = so.space.size(); k > 0; --k) {
    const SegBind& b = so.space[k - 1];
    end -= b.params.size();
    for (size_t i = 0; i < b.params.size(); ++i) {
      if (scope_[end + i].uses > 0) {
        use(b.arrays[i], end);
      } else {
        dropped.emplace_back(k - 1, i);
      }
    }
  }
  for (const SegBind& b : so.space) {
    use(b.dim, end);
    end += b.params.size();
  }
  scope_.resize(params_at);
  if (dropped.empty()) return e;
  SegOpE out = so;
  // Outermost level first, last position first, so positions stay valid.
  for (auto it = dropped.rbegin(); it != dropped.rend(); ++it) {
    SegBind& b = out.space[it->first];
    const auto at = static_cast<std::ptrdiff_t>(it->second);
    b.params.erase(b.params.begin() + at);
    b.arrays.erase(b.arrays.begin() + at);
  }
  return mk(std::move(out), e->types);
}

ExprP Pruner::walk(const ExprP& e) {  // NOLINT(misc-no-recursion)
  if (!e) return e;
  if (auto* v = e->as<VarE>()) {
    use(v->name, scope_.size());
    return e;
  }
  if (auto* io = e->as<IotaE>()) {
    use(io->count, scope_.size());
    return e;
  }
  if (auto* tc = e->as<ThresholdCmpE>()) {
    for (const auto& alt : tc->par.alts) {
      for (const auto& d : alt.vars) use(d, scope_.size());
    }
    return e;
  }
  if (auto* rp = e->as<ReplicateE>()) use(rp->count, scope_.size());
  // A seg-op's parameters are bound over its combine operator and body;
  // they stay on the stack after them (the body comes last) for
  // prune_segop.
  const size_t at = scope_.size();
  ExprP out = map_children(e, [&](const Child& c) {
    if (c.binds.space && scope_.size() == at) {
      for (const SegBind& b : *c.binds.space) {
        for (const auto& p : b.params) bind(p);
      }
    }
    const size_t outer = scope_.size();
    for (const auto& v : c.binds.vars) bind(v);
    if (c.binds.ivar) bind(*c.binds.ivar);
    for (const auto& p : c.binds.params) bind(p.name);
    ExprP x = walk(c.expr);
    scope_.resize(outer);
    return x;
  });
  if (auto* so = out->as<SegOpE>()) return prune_segop(out, *so, at);
  return out;
}

}  // namespace

ExprP prune_seg_spaces(const ExprP& e) { return Pruner().walk(e); }

}  // namespace incflat
