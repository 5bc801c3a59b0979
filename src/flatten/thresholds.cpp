#include "src/flatten/thresholds.h"

#include <sstream>

#include "src/ir/traverse.h"

namespace incflat {

namespace {

void collect_guards(const ExprP& e, GuardPath& path,
                    std::vector<ThresholdInfo>& out) {
  if (!e) return;
  if (auto* i = e->as<IfE>()) {
    if (auto* tc = i->cond->as<ThresholdCmpE>()) {
      out.push_back(ThresholdInfo{tc->threshold, tc->par, tc->fit, path});
      for (const bool taken : {true, false}) {
        path.emplace_back(tc->threshold, taken);
        collect_guards(taken ? i->then_e : i->else_e, path, out);
        path.pop_back();
      }
      return;
    }
  }
  for_each_child(*e,
                 [&](const Child& c) { collect_guards(c.expr, path, out); });
}

}  // namespace

ThresholdRegistry::ThresholdRegistry(const ExprP& body) {
  GuardPath path;
  collect_guards(body, path, infos_);
}

std::string ThresholdRegistry::tree_str() const {
  std::ostringstream os;
  for (const auto& ti : infos_) {
    os << std::string(2 * ti.path.size(), ' ') << ti.name << ": "
       << ti.par.str() << " >= ?";
    if (!ti.path.empty()) {
      os << "   [under";
      for (const auto& [anc, dir] : ti.path) {
        os << " " << anc << "=" << (dir ? "T" : "F");
      }
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace incflat
