#include "src/flatten/prune.h"

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/traverse.h"

namespace incflat {

namespace {

/// Drop seg-space bindings whose parameters are used neither by the body
/// (or combine operator) nor as the source array of a deeper binding; `e`
/// itself when every binding is used.  `so` (e's payload) must have its body
/// already pruned: the used-set is computed from it, so pruning bottom-up
/// makes a binding kept only for a nested seg-op's dead binding disappear
/// in the same pass (and the pass idempotent).
ExprP prune_segop(const ExprP& e, const SegOpE& so) {
  std::set<std::string> used = free_vars(so.body);
  if (so.op != SegOpE::Op::Map) {
    for (const auto& fv : free_vars(so.combine.body)) used.insert(fv);
    for (const auto& p : so.combine.params) used.erase(p.name);
  }
  // (level, position) of each dropped binding, innermost level first.
  std::vector<std::pair<size_t, size_t>> dropped;
  for (size_t k = so.space.size(); k > 0; --k) {
    const SegBind& b = so.space[k - 1];
    for (size_t i = 0; i < b.params.size(); ++i) {
      if (used.count(b.params[i])) {
        used.insert(b.arrays[i]);
      } else {
        dropped.emplace_back(k - 1, i);
      }
    }
  }
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

}  // namespace

ExprP prune_seg_spaces(const ExprP& e) {
  if (!e) return e;
  auto prune = [](const Child& c) { return prune_seg_spaces(c.expr); };
  ExprP out = map_children(e, prune);
  if (auto* so = out->as<SegOpE>()) return prune_segop(out, *so);
  return out;
}

}  // namespace incflat
