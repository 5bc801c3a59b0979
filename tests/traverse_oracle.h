// Reference walks for the IR's structural queries, kept as the tests'
// oracle: has_soacs and has_segops as plain recursive walks, a node's facts
// (Expr::soacs_below, Expr::segops_below) as the same walks over each of
// its children, free_vars as the algorithm that copies the bound set at
// every binder, and prune-segbinds as the pass that computes each
// seg-op's free variables by name.  first_mismatch compares the queries
// with the library's answers on every node reachable from a root.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/print.h"
#include "src/ir/traverse.h"

namespace incflat::oracle {

inline bool has_soacs(const ExprP& e) {  // NOLINT(misc-no-recursion)
  if (!e) return false;
  if (is_soac(*e) || e->is<SegOpE>()) return true;
  bool found = false;
  for_each_child(*e, [&](const Child& c) {
    found = found || oracle::has_soacs(c.expr);
  });
  return found;
}

inline bool has_segops(const ExprP& e) {  // NOLINT(misc-no-recursion)
  if (!e) return false;
  if (e->is<SegOpE>()) return true;
  bool found = false;
  for_each_child(*e, [&](const Child& c) {
    found = found || oracle::has_segops(c.expr);
  });
  return found;
}

inline bool soacs_below(const Expr& e) {
  bool found = false;
  for_each_child(e, [&](const Child& c) {
    found = found || oracle::has_soacs(c.expr);
  });
  return found;
}

inline bool segops_below(const Expr& e) {
  bool found = false;
  for_each_child(e, [&](const Child& c) {
    found = found || oracle::has_segops(c.expr);
  });
  return found;
}

inline void fv(const ExprP& e, const std::set<std::string>& bound,
               std::set<std::string>& out) {
  if (!e) return;
  auto dim = [&](const Dim& d, const std::set<std::string>& b) {
    if (!d.is_const() && !b.count(d.var)) out.insert(d.var);
  };
  if (auto* v = e->as<VarE>()) {
    if (!bound.count(v->name)) out.insert(v->name);
    return;
  }
  if (auto* io = e->as<IotaE>()) return dim(io->count, bound);
  if (auto* tc = e->as<ThresholdCmpE>()) {
    for (const auto& alt : tc->par.alts) {
      for (const auto& d : alt.vars) dim(d, bound);
    }
    return;
  }
  if (auto* rp = e->as<ReplicateE>()) {
    dim(rp->count, bound);
  } else if (auto* so = e->as<SegOpE>()) {
    std::set<std::string> outer = bound;
    for (const auto& lvl : so->space) {
      for (const auto& a : lvl.arrays) {
        if (!outer.count(a)) out.insert(a);
      }
      dim(lvl.dim, outer);
      outer.insert(lvl.params.begin(), lvl.params.end());
    }
  }
  for_each_child(*e, [&](const Child& c) {
    if (c.binds.empty()) return fv(c.expr, bound, out);
    std::set<std::string> inner = bound;
    c.binds.each([&](const std::string& n) { inner.insert(n); });
    fv(c.expr, inner, out);
  });
}

inline std::set<std::string> free_vars(const ExprP& e) {
  std::set<std::string> out;
  fv(e, {}, out);
  return out;
}

/// Drops the seg-space bindings of `so` (e's payload, its body already
/// pruned) whose parameters neither the body (or combine operator) nor a
/// kept deeper binding's array names; `e` itself when it drops none.
inline ExprP prune_segop(const ExprP& e, const SegOpE& so) {
  std::set<std::string> used = oracle::free_vars(so.body);
  if (so.op != SegOpE::Op::Map) {
    for (const auto& fv : oracle::free_vars(so.combine.body)) used.insert(fv);
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

/// prune-segbinds as a bottom-up rebuild that asks free_vars at every
/// seg-op.
inline ExprP prune_seg_spaces(const ExprP& e) {  // NOLINT(misc-no-recursion)
  if (!e) return e;
  ExprP out = map_children(
      e, [](const Child& c) { return oracle::prune_seg_spaces(c.expr); });
  if (auto* so = out->as<SegOpE>()) return oracle::prune_segop(out, *so);
  return out;
}

/// The first node reachable from `root` (each shared node once) where a
/// fact, has_soacs, has_segops or free_vars differs from the reference, as
/// "<query> on <node>"; empty when every node agrees.
inline std::string first_mismatch(const ExprP& root) {
  std::unordered_set<const Expr*> seen;
  std::string bad;
  auto visit = [&](auto& self, const ExprP& e) -> void {
    if (!e || !bad.empty() || !seen.insert(e.get()).second) return;
    const char* query = nullptr;
    if (e->soacs_below() != oracle::soacs_below(*e)) {
      query = "soacs_below";
    } else if (e->segops_below() != oracle::segops_below(*e)) {
      query = "segops_below";
    } else if (incflat::has_soacs(e) != oracle::has_soacs(e)) {
      query = "has_soacs";
    } else if (incflat::has_segops(e) != oracle::has_segops(e)) {
      query = "has_segops";
    } else if (incflat::free_vars(e) != oracle::free_vars(e)) {
      query = "free_vars";
    }
    if (query) {
      bad = std::string(query) + " on " + pretty(e);
      return;
    }
    for_each_child(*e, [&](const Child& c) { self(self, c.expr); });
  };
  visit(visit, root);
  return bad;
}

}  // namespace incflat::oracle
