#include "src/ir/traverse.h"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <variant>

#include "src/support/error.h"

namespace incflat {

namespace traverse_detail {

namespace {

template <typename... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overload(Fs...) -> Overload<Fs...>;

template <bool Const, typename T>
using Q = std::conditional_t<Const, const T, T>;

/// The child slots of `node` (a const or mutable ExprNode) in the fixed
/// order.  No default branch, so a new node kind fails to compile here.
template <typename Node>
auto slots_of(Node& node) {
  constexpr bool C = std::is_const_v<Node>;
  using Slot = Q<C, ExprP>;
  Slots<Slot> s;
  auto add = [&](Slot* first, size_t count, Step step, Binders b) {
    s.runs[s.size++] = Run<Slot>{first, count, b, step};
  };
  auto one = [&](Slot& x, Step step, Binders b = {}) { add(&x, 1, step, b); };
  auto list = [&](auto& xs, Step step) {
    add(xs.data(), xs.size(), step, {});
  };
  auto lambda = [&](auto& l, Step step, Binders b = {}) {
    b.params = l.params;
    add(&l.body, 1, step, b);
  };
  std::visit(
      Overload{
          [](Q<C, VarE>&) {},
          [](Q<C, ConstE>&) {},
          [](Q<C, IotaE>&) {},
          [](Q<C, ThresholdCmpE>&) {},
          [&](Q<C, BinOpE>& n) {
            one(n.lhs, Step::None);
            one(n.rhs, Step::None);
          },
          [&](Q<C, UnOpE>& n) { one(n.e, Step::None); },
          [&](Q<C, IfE>& n) {
            one(n.cond, Step::Cond);
            one(n.then_e, Step::Then);
            one(n.else_e, Step::Else);
          },
          [&](Q<C, LetE>& n) {
            one(n.rhs, Step::LetRhs);
            Binders b;
            b.vars = n.vars;
            one(n.body, Step::None, b);
          },
          [&](Q<C, LoopE>& n) {
            list(n.inits, Step::None);
            one(n.count, Step::None);
            Binders b;
            b.vars = n.params;
            b.ivar = &n.ivar;
            one(n.body, Step::Loop, b);
          },
          [&](Q<C, MapE>& n) {
            list(n.arrays, Step::None);
            lambda(n.f, Step::Map);
          },
          [&](Q<C, ReduceE>& n) {
            list(n.neutral, Step::None);
            list(n.arrays, Step::None);
            lambda(n.op, Step::Reduce);
          },
          [&](Q<C, ScanE>& n) {
            list(n.neutral, Step::None);
            list(n.arrays, Step::None);
            lambda(n.op, Step::Scan);
          },
          [&](Q<C, RedomapE>& n) {
            list(n.neutral, Step::None);
            list(n.arrays, Step::None);
            lambda(n.red, Step::Redomap);
            lambda(n.mapf, Step::Redomap);
          },
          [&](Q<C, ScanomapE>& n) {
            list(n.neutral, Step::None);
            list(n.arrays, Step::None);
            lambda(n.red, Step::Scanomap);
            lambda(n.mapf, Step::Scanomap);
          },
          [&](Q<C, ReplicateE>& n) { one(n.elem, Step::None); },
          [&](Q<C, RearrangeE>& n) { one(n.e, Step::None); },
          [&](Q<C, IndexE>& n) {
            one(n.arr, Step::None);
            list(n.idxs, Step::None);
          },
          [&](Q<C, TupleE>& n) { list(n.elems, Step::Elem); },
          [&](Q<C, SegOpE>& n) {
            Binders b;
            b.space = &n.space;
            list(n.neutral, Step::SegNeutral);
            if (n.op != SegOpE::Op::Map) {
              lambda(n.combine, Step::SegCombine, b);
            }
            one(n.body, Step::SegBody, b);
          },
      },
      node);
  return s;
}

}  // namespace

Slots<const ExprP> slots(const ExprNode& node) { return slots_of(node); }

ExprP rebuild(const ExprP& e, std::vector<std::pair<size_t, ExprP>>& changed) {
  ExprNode node = e->node;
  const Slots<ExprP> s = slots_of(node);
  size_t k = 0, next = 0;
  for (size_t r = 0; r < s.size; ++r) {
    for (size_t i = 0; i < s.runs[r].count; ++i, ++k) {
      if (next < changed.size() && changed[next].first == k) {
        s.runs[r].first[i] = std::move(changed[next++].second);
      }
    }
  }
  return mk(std::move(node), e->types);
}

}  // namespace traverse_detail

std::string Child::path(const std::string& at) const {
  switch (step) {
    case Step::None: return at;
    case Step::Cond: return at + ".cond";
    case Step::Then: return at + ".then";
    case Step::Else: return at + ".else";
    case Step::LetRhs: {
      const auto& vars = parent.as<LetE>()->vars;
      return at + "." + (vars.empty() ? std::string("_") : vars[0]) + "=";
    }
    case Step::Loop: return at + ".loop";
    case Step::Elem: return at + "[" + std::to_string(index) + "]";
    case Step::Map: return at + ".map";
    case Step::Reduce: return at + ".reduce";
    case Step::Scan: return at + ".scan";
    case Step::Redomap: return at + ".redomap";
    case Step::Scanomap: return at + ".scanomap";
    case Step::SegNeutral:
      return at + "." + segop_label(*parent.as<SegOpE>()) + ".neutral";
    case Step::SegCombine:
      return at + "." + segop_label(*parent.as<SegOpE>()) + ".combine";
    case Step::SegBody:
      return at + "." + segop_label(*parent.as<SegOpE>()) + ".body";
  }
  INCFLAT_FAIL("Child::path: unknown step");
}

std::string segop_label(const SegOpE& so) {
  const char* kind = so.op == SegOpE::Op::Map
                         ? "segmap"
                         : so.op == SegOpE::Op::Red ? "segred" : "segscan";
  return std::string(kind) + "^" + std::to_string(so.level);
}

bool is_soac(const Expr& e) {
  return e.is<MapE>() || e.is<ReduceE>() || e.is<ScanE>() ||
         e.is<RedomapE>() || e.is<ScanomapE>();
}

namespace {

/// The fields of two nodes of one kind, children aside.  No default branch,
/// so a new node kind fails to compile here.
bool same_fields(const ExprNode& a, const ExprNode& b) {
  // as(x): b's payload, of x's kind.
  auto as = [&b](const auto& x) -> const auto& {
    return std::get<std::decay_t<decltype(x)>>(b);
  };
  auto same_space = [](const SegSpace& x, const SegSpace& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const SegBind& p, const SegBind& q) {
                        return p.params == q.params && p.arrays == q.arrays &&
                               p.dim == q.dim;
                      });
  };
  return std::visit(
      traverse_detail::Overload{
          [&](const VarE& x) { return x.name == as(x).name; },
          [&](const ConstE& x) {
            const ConstE& y = as(x);
            return x.tag == y.tag && x.i == y.i &&
                   std::bit_cast<uint64_t>(x.f) ==
                       std::bit_cast<uint64_t>(y.f);
          },
          [&](const BinOpE& x) { return x.op == as(x).op; },
          [&](const UnOpE& x) { return x.op == as(x).op; },
          [](const IfE&) { return true; },
          [&](const LetE& x) { return x.vars == as(x).vars; },
          [&](const LoopE& x) {
            return x.params == as(x).params && x.ivar == as(x).ivar;
          },
          [](const MapE&) { return true; },
          [](const ReduceE&) { return true; },
          [](const ScanE&) { return true; },
          [](const RedomapE&) { return true; },
          [](const ScanomapE&) { return true; },
          [&](const ReplicateE& x) { return x.count == as(x).count; },
          [&](const RearrangeE& x) { return x.perm == as(x).perm; },
          [&](const IotaE& x) { return x.count == as(x).count; },
          [](const IndexE&) { return true; },
          [](const TupleE&) { return true; },
          [&](const SegOpE& x) {
            const SegOpE& y = as(x);
            return x.op == y.op && x.level == y.level &&
                   x.block_tiled == y.block_tiled &&
                   same_space(x.space, y.space);
          },
          [&](const ThresholdCmpE& x) {
            const ThresholdCmpE& y = as(x);
            return x.threshold == y.threshold && x.par == y.par &&
                   x.fit == y.fit;
          },
      },
      a);
}

}  // namespace

bool same_ir(const ExprP& a, const ExprP& b) {
  if (a == b) return true;
  if (!a || !b || a->node.index() != b->node.index() ||
      !same_fields(a->node, b->node)) {
    return false;
  }
  // Nodes of one kind with equal fields list their children alike: the
  // same runs, each with its lambda's parameter names.
  const auto x = traverse_detail::slots(a->node);
  const auto y = traverse_detail::slots(b->node);
  auto same_name = [](const Param& p, const Param& q) {
    return p.name == q.name;
  };
  for (size_t r = 0; r < x.size; ++r) {
    const auto& rx = x.runs[r];
    const auto& ry = y.runs[r];
    const auto& px = rx.binds.params;
    const auto& py = ry.binds.params;
    if (rx.count != ry.count ||
        !std::equal(px.begin(), px.end(), py.begin(), py.end(), same_name) ||
        !std::equal(rx.first, rx.first + rx.count, ry.first, same_ir)) {
      return false;
    }
  }
  return true;
}

namespace {

void fv(const ExprP& e, BoundNames& bound, std::set<std::string>& out) {
  if (!e) return;
  auto dim = [&](const Dim& d) {
    if (!d.is_const() && !bound.contains(d.var)) out.insert(d.var);
  };
  if (auto* v = e->as<VarE>()) {
    if (!bound.contains(v->name)) out.insert(v->name);
    return;
  }
  if (auto* io = e->as<IotaE>()) return dim(io->count);
  if (auto* tc = e->as<ThresholdCmpE>()) {
    for (const auto& alt : tc->par.alts) {
      for (const auto& d : alt.vars) dim(d);
    }
    return;
  }
  if (auto* rp = e->as<ReplicateE>()) {
    dim(rp->count);
  } else if (auto* so = e->as<SegOpE>()) {
    // Each level's source arrays and dimension see the outer levels' params.
    const size_t outer = bound.size();
    for (const auto& lvl : so->space) {
      for (const auto& a : lvl.arrays) {
        if (!bound.contains(a)) out.insert(a);
      }
      dim(lvl.dim);
      for (const auto& p : lvl.params) bound.push(p);
    }
    bound.pop_to(outer);
  }
  for_each_child(*e, [&](const Child& c) {
    const size_t outer = bound.size();
    bound.push(c.binds);
    fv(c.expr, bound, out);
    bound.pop_to(outer);
  });
}

template <typename Pred>
bool any_node(const ExprP& e, Pred& pred) {  // NOLINT(misc-no-recursion)
  if (!e) return false;
  if (pred(*e)) return true;
  bool found = false;
  for_each_child(*e, [&](const Child& c) {
    found = found || any_node(c.expr, pred);
  });
  return found;
}

}  // namespace

std::set<std::string> free_vars(const ExprP& e) {
  std::set<std::string> out;
  BoundNames bound;
  fv(e, bound, out);
  return out;
}

bool has_soacs(const ExprP& e) {
  return e && (e->soacs_below() || is_soac(*e) || e->is<SegOpE>());
}

ExprP subst_vars(const ExprP& e, const std::map<std::string, ExprP>& sub) {
  if (!e || sub.empty()) return e;
  if (auto* v = e->as<VarE>()) {
    auto it = sub.find(v->name);
    return it == sub.end() ? e : it->second;
  }
  if (e->is<SegOpE>()) {
    // Seg-ops reference arrays by *name* in their space, so expression
    // substitution cannot be applied; the flattening pass never sinks
    // bindings into already-flattened code.
    INCFLAT_FAIL("subst_vars: cannot substitute into a seg-op");
  }
  return map_children(e, [&](const Child& c) {
    if (c.binds.empty()) return subst_vars(c.expr, sub);
    std::map<std::string, ExprP> inner = sub;
    c.binds.each([&](const std::string& n) { inner.erase(n); });
    return subst_vars(c.expr, inner);
  });
}

int64_t count_nodes(const ExprP& e) {
  int64_t n = 0;
  auto pred = [&](const Expr&) {
    ++n;
    return false;  // never match, so the walk visits everything
  };
  any_node(e, pred);
  return n;
}

int64_t count_segops(const ExprP& e) {
  int64_t n = 0;
  auto pred = [&](const Expr& x) {
    if (x.is<SegOpE>()) ++n;
    return false;
  };
  any_node(e, pred);
  return n;
}

bool has_segops(const ExprP& e) {
  return e && (e->segops_below() || e->is<SegOpE>());
}

}  // namespace incflat
