#include "src/flatten/tiling.h"

#include <set>

#include "src/ir/traverse.h"
#include "src/support/error.h"

namespace incflat {

namespace {

/// Does `e` contain (outside of nested lambdas of further seg-ops) a
/// redomap whose array operands are all plain variables?
bool body_has_tileable_redomap(const ExprP& e) {
  if (!e) return false;
  if (auto* rm = e->as<RedomapE>()) {
    for (const auto& a : rm->arrays) {
      // Whole-array variables are stageable; iota operands are computed
      // (gather-style redomaps whose real reads are indexes in the body).
      if (!a->is<VarE>() && !a->is<IotaE>()) return false;
    }
    return true;
  }
  // Only lets, loops, ifs, maps and tuples are searched through: a redomap
  // nested in a scalar operator, an index or a reduction's operator is not
  // tiled.
  if (!e->is<LetE>() && !e->is<LoopE>() && !e->is<IfE>() && !e->is<MapE>() &&
      !e->is<TupleE>()) {
    return false;
  }
  bool found = false;
  for_each_child(*e, [&](const Child& c) {
    found = found || body_has_tileable_redomap(c.expr);
  });
  return found;
}

bool segmap_is_tileable(const SegOpE& so) {
  if (so.op != SegOpE::Op::Map || so.level < 1) return false;
  if (so.space.size() < 2) return false;
  if (has_segops(so.body)) return false;  // intra-group kernels: no
  return body_has_tileable_redomap(so.body);
}

ExprP mark(const ExprP& e) {
  if (!e) return e;
  ExprP out = map_children(e, [](const Child& c) { return mark(c.expr); });
  auto* so = out->as<SegOpE>();
  if (!so || segmap_is_tileable(*so) == so->block_tiled) return out;
  SegOpE marked = *so;
  marked.block_tiled = !so->block_tiled;
  return mk(std::move(marked), out->types);
}

}  // namespace

Program apply_tiling(Program p) {
  p.body = mark(p.body);
  return p;
}

int64_t count_tiled(const ExprP& e) {
  if (!e) return 0;
  auto* so = e->as<SegOpE>();
  int64_t n = so && so->block_tiled ? 1 : 0;
  for_each_child(*e, [&](const Child& c) { n += count_tiled(c.expr); });
  return n;
}

}  // namespace incflat
