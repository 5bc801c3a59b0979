#include "src/flatten/prune.h"

#include <set>
#include <string>
#include <vector>

#include "src/ir/traverse.h"

namespace incflat {

namespace {

/// Drop seg-space bindings whose parameters are used neither by the body
/// (or combine operator) nor as the source array of a deeper binding.
/// `so.body` must already be pruned: the used-set is computed from it, so
/// pruning bottom-up makes a binding kept only for a nested seg-op's dead
/// binding disappear in the same pass (and the pass idempotent).
SegOpE prune_segop(const SegOpE& so) {
  std::set<std::string> used = free_vars(so.body);
  if (so.op != SegOpE::Op::Map) {
    for (const auto& fv : free_vars(so.combine.body)) used.insert(fv);
    for (const auto& p : so.combine.params) used.erase(p.name);
  }
  SegOpE out = so;
  for (size_t k = out.space.size(); k > 0; --k) {
    SegBind& b = out.space[k - 1];
    std::vector<std::string> params, arrays;
    for (size_t i = 0; i < b.params.size(); ++i) {
      if (used.count(b.params[i])) {
        params.push_back(b.params[i]);
        arrays.push_back(b.arrays[i]);
        used.insert(b.arrays[i]);
      }
    }
    b.params = std::move(params);
    b.arrays = std::move(arrays);
  }
  return out;
}

}  // namespace

ExprP prune_seg_spaces(const ExprP& e) {
  if (!e) return e;
  auto prune = [](const Child& c) { return prune_seg_spaces(c.expr); };
  ExprP out = map_children(e, prune);
  if (auto* so = out->as<SegOpE>()) return mk(prune_segop(*so), out->types);
  return out;
}

}  // namespace incflat
