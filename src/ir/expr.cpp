#include "src/ir/expr.h"

#include <set>

#include "src/ir/traverse.h"
#include "src/support/error.h"

namespace incflat {

Expr::Expr(ExprNode n) : node(std::move(n)) { set_facts(); }

Expr::Expr(ExprNode n, std::vector<Type> ts)
    : node(std::move(n)), types(std::move(ts)) {
  set_facts();
}

void Expr::set_facts() {
  for_each_child(*this, [this](const Child& c) {
    if (!c.expr) return;
    const Expr& x = *c.expr;
    const bool segop = x.is<SegOpE>();
    segops_below_ = segops_below_ || segop || x.segops_below_;
    soacs_below_ = soacs_below_ || segop || is_soac(x) || x.soacs_below_;
  });
}

const Type& Expr::type() const {
  INCFLAT_CHECK(types.size() == 1,
                "type() on expression with " + std::to_string(types.size()) +
                    " results");
  return types[0];
}

ExprP mk(ExprNode n) { return std::make_shared<Expr>(std::move(n)); }

ExprP mk(ExprNode n, std::vector<Type> ts) {
  return std::make_shared<Expr>(std::move(n), std::move(ts));
}

std::vector<std::string> Program::size_params() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& p : inputs) {
    for (const auto& d : p.type.shape) {
      if (!d.is_const() && seen.insert(d.var).second) {
        out.push_back(d.var);
      }
    }
  }
  for (const auto& s : extra_sizes) {
    if (seen.insert(s).second) out.push_back(s);
  }
  return out;
}

}  // namespace incflat
