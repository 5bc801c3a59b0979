#include "src/flatten/thresholds.h"

#include <sstream>

#include "src/support/error.h"

namespace incflat {

std::string ThresholdRegistry::fresh(const std::string& kind,
                                     const SizeExpr& par, const SizeExpr& fit,
                                     const GuardPath& path) {
  std::string name = kind + "_" + std::to_string(counter_++);
  index_[name] = infos_.size();
  infos_.push_back(ThresholdInfo{name, par, fit, path});
  return name;
}

void ThresholdRegistry::truncate(size_t mark) {
  INCFLAT_CHECK(mark <= infos_.size(), "threshold truncate beyond size");
  while (infos_.size() > mark) {
    index_.erase(infos_.back().name);
    infos_.pop_back();
  }
}

size_t ThresholdRegistry::retain(const std::set<std::string>& keep) {
  std::vector<ThresholdInfo> kept;
  kept.reserve(infos_.size());
  for (auto& ti : infos_) {
    if (!keep.count(ti.name)) continue;
    GuardPath path;
    for (const auto& step : ti.path) {
      if (keep.count(step.first)) path.push_back(step);
    }
    ti.path = std::move(path);
    kept.push_back(std::move(ti));
  }
  const size_t removed = infos_.size() - kept.size();
  infos_ = std::move(kept);
  index_.clear();
  for (size_t i = 0; i < infos_.size(); ++i) index_[infos_[i].name] = i;
  return removed;
}

const ThresholdInfo& ThresholdRegistry::info(const std::string& name) const {
  auto it = index_.find(name);
  INCFLAT_CHECK(it != index_.end(), "unknown threshold " + name);
  return infos_[it->second];
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
