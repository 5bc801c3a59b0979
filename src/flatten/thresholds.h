// Threshold parameters and the branching tree of guarded code versions.
//
// Incremental flattening guards each generated code version with a predicate
// `Par(...) >= t` over a fresh threshold parameter t (rules G3/G9).  The
// registry records, for every threshold, the symbolic size it is compared
// against and the guard *path* (ancestor thresholds and branch directions)
// under which the comparison is reachable.  This is the paper's Fig. 5
// branching tree; the autotuner's deduplication of equivalent parameter
// assignments (Sec. 4.2) reads the same tree off the KernelPlan.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ir/size.h"

namespace incflat {

/// One step on a guard path: (threshold name, branch taken).  `true` means
/// the comparison succeeded (the more-parallel-outer version was selected).
using PathStep = std::pair<std::string, bool>;
using GuardPath = std::vector<PathStep>;

struct ThresholdInfo {
  std::string name;
  SizeExpr par;      // the symbolic size compared against this threshold
  SizeExpr fit;      // workgroup-size feasibility bound; empty alts = none
  GuardPath path;    // guards that must evaluate as recorded to reach this one
};

/// Registry of all thresholds created while flattening one program.
class ThresholdRegistry {
 public:
  /// Create a fresh threshold of the given kind ("suff_outer_par" /
  /// "suff_intra_par") compared against `par`, reachable under `path`.
  /// `fit` carries the guarded version's workgroup-size requirement (empty
  /// for versions without intra-group parallelism).
  std::string fresh(const std::string& kind, const SizeExpr& par,
                    const SizeExpr& fit, const GuardPath& path);

  const std::vector<ThresholdInfo>& all() const { return infos_; }
  const ThresholdInfo& info(const std::string& name) const;
  bool empty() const { return infos_.empty(); }
  size_t size() const { return infos_.size(); }

  /// Roll back to `mark` thresholds (used when a guarded group degenerates
  /// to a single version and its guards are discarded).
  void truncate(size_t mark);

  /// Keep only the thresholds in `keep` (those still mentioned by guards in
  /// the IR after simplify-guards folded some away), preserving relative
  /// order.  Guard-path steps referencing dropped thresholds are erased:
  /// a folded guard takes a constant branch, so it no longer constrains
  /// reachability.  Returns the number of thresholds removed.
  size_t retain(const std::set<std::string>& keep);

  /// Render the branching tree (indented text), Fig. 5 style.
  std::string tree_str() const;

 private:
  std::vector<ThresholdInfo> infos_;
  std::map<std::string, size_t> index_;
  int counter_ = 0;
};

}  // namespace incflat
