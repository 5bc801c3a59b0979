// Structural traversals over the expression AST.
//
// for_each_child and map_children, over the one child listing in
// traverse.cpp, are the one place that knows, for every ExprNode kind, its
// child expressions in a fixed order, the names the node binds over each
// child, and each child's step in a diagnostic IR path.  Every other
// walker — free variables, substitution and counting here, and the passes
// and analyses built on them — handles only the node kinds it treats
// specially and hands the rest to these two.  The type checker, the
// interpreter, the printer, normalize, the flattening rules, the cost
// walker and the plan builder keep their own recursion: their visit order
// or per-kind rebuild decides their output.  same_ir adds one exhaustive
// visit of its own, over the fields that are not children.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/expr.h"

namespace incflat {

/// The names a node binds over one of its children.
struct Binders {
  std::span<const std::string> vars;  // let-bound names, or loop params
  const std::string* ivar = nullptr;  // loop index (loop bodies only)
  const SegSpace* space = nullptr;    // the params of every seg-space level
  std::span<const Param> params;      // lambda params

  bool empty() const {
    return vars.empty() && !ivar && !space && params.empty();
  }

  /// Calls f(name) for every bound name.
  template <typename F>
  void each(F&& f) const {
    for (const auto& v : vars) f(v);
    if (ivar) f(*ivar);
    if (space) {
      for (const auto& level : *space) {
        for (const auto& p : level.params) f(p);
      }
    }
    for (const auto& p : params) f(p.name);
  }
};

/// A child's step in a diagnostic IR path such as
/// "body.x=.then.segmap^1.body[0]".
enum class Step : uint8_t {
  None,        // operands: the path is unchanged
  Cond,        // ".cond"
  Then,        // ".then"
  Else,        // ".else"
  LetRhs,      // ".<first bound name>="
  Loop,        // ".loop"
  Elem,        // "[i]"
  Map,         // ".map"
  Reduce,      // ".reduce"
  Scan,        // ".scan"
  Redomap,     // ".redomap"
  Scanomap,    // ".scanomap"
  SegNeutral,  // ".segred^l.neutral"
  SegCombine,  // ".segred^l.combine"
  SegBody,     // ".segmap^l.body"
};

/// One child of an expression node, as for_each_child yields it; it refers
/// into the parent node and is valid during the callback only.
struct Child {
  const ExprP& expr;
  const Expr& parent;
  Binders binds;
  Step step = Step::None;
  size_t index = 0;  // position in its list (tuple elements, operands)

  /// `at` extended by this child's path step.
  std::string path(const std::string& at) const;
};

/// "segmap^1", "segred^0", "segscan^2": a seg-op's kind and level.
std::string segop_label(const SegOpE& so);

/// True for the source-language SOACs: map, reduce, scan, redomap and
/// scanomap (sequential in a target program).
bool is_soac(const Expr& e);

namespace traverse_detail {

/// `count` consecutive child slots from `first`, sharing binders and step.
template <typename Slot>
struct Run {
  Slot* first = nullptr;
  size_t count = 0;
  Binders binds;
  Step step = Step::None;
};

/// A node's child slots in the fixed order, as at most four runs.
template <typename Slot>
struct Slots {
  std::array<Run<Slot>, 4> runs;
  size_t size = 0;
};

/// The child listing: one exhaustive std::visit over ExprNode in
/// traverse.cpp, with no default branch, so a new node kind fails to
/// compile there.
Slots<const ExprP> slots(const ExprNode& node);

/// `e` with the children at the given positions (ascending, counted in
/// for_each_child's order) replaced; moves the new children out of
/// `changed`.
ExprP rebuild(const ExprP& e, std::vector<std::pair<size_t, ExprP>>& changed);

}  // namespace traverse_detail

/// Calls f(const Child&) for each child expression of `e`, in one fixed
/// order: operands (neutral elements, then arrays) before the bodies that
/// bind names over them — if: cond, then, else; let: rhs, body; loop:
/// inits, count, body; redomap/scanomap: operator, then map function;
/// seg-op: neutral elements, combine operator (segred/segscan), body.
template <typename F>
void for_each_child(const Expr& e, F&& f) {
  const auto s = traverse_detail::slots(e.node);
  for (size_t r = 0; r < s.size; ++r) {
    const auto& run = s.runs[r];
    for (size_t i = 0; i < run.count; ++i) {
      f(Child{run.first[i], e, run.binds, run.step, i});
    }
  }
}

/// Non-null `e` with each child replaced by f(const Child&), called in
/// for_each_child's order.  The rebuilt node keeps `e->types`; when every
/// child comes back as the same pointer, `e` itself is returned.
template <typename F>
ExprP map_children(const ExprP& e, F&& f) {
  std::vector<std::pair<size_t, ExprP>> changed;  // (child position, new)
  size_t k = 0;
  for_each_child(*e, [&](const Child& c) {
    ExprP x = f(c);
    if (x != c.expr) changed.emplace_back(k, std::move(x));
    ++k;
  });
  return changed.empty() ? e : traverse_detail::rebuild(e, changed);
}

/// True if `a` and `b` are the same IR: equal in every field but the `types`
/// annotations and lambda parameter types, which are derived from the rest
/// (and a segmap's unused combine operator).  A shared pointer is equal
/// without a walk.  This is the one test of code version identity (rule
/// G3's degenerate case).
bool same_ir(const ExprP& a, const ExprP& b);

/// Free variable names of `e`.  Size variables inside Dims (iota/replicate
/// counts) are included, since datasets bind them in the value environment
/// too.  Names bound by lambdas, lets, loops, and seg-space binders are
/// excluded within their scope.
std::set<std::string> free_vars(const ExprP& e);

/// True if `e` contains any source-language SOAC (map/reduce/scan/redomap/
/// scanomap) or target seg-op anywhere, including inside lambdas.  This is
/// the "has inner SOACs" test of rules G2/G3.
bool has_soacs(const ExprP& e);

/// Substitute expressions for free variables (used by the flattening pass to
/// sink cheap sequential bindings into distributed kernels).  Binders shadow
/// substituted names; programs are assumed to use globally unique binder
/// names so substituted expressions cannot be captured.
ExprP subst_vars(const ExprP& e, const std::map<std::string, ExprP>& sub);

/// Number of AST nodes (code-size metric for the ablation experiments).
int64_t count_nodes(const ExprP& e);

/// Number of seg-op nodes (generated kernel versions metric).
int64_t count_segops(const ExprP& e);

/// True if `e` contains a seg-op; stops at the first one.
bool has_segops(const ExprP& e);

}  // namespace incflat
