// Threshold parameters and the branching tree of guarded code versions.
//
// Incremental flattening guards each generated code version with a predicate
// `Par(...) >= t` over a fresh threshold parameter t (rules G3/G9), and each
// threshold is compared by exactly one guard (the verifier's guards check).
// The registry is read off a target body: one pre-order walk records, for
// every guard, its threshold, the symbolic size it compares, its
// workgroup-fit bound, and its *path* (the enclosing guards and the branch
// taken under each).  This is the paper's Fig. 5 branching tree; the
// autotuner's deduplication of equivalent parameter assignments (Sec. 4.2)
// reads the same tree off the KernelPlan.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/ir/expr.h"
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

/// The thresholds of one target program, in the pre-order of their guards.
class ThresholdRegistry {
 public:
  ThresholdRegistry() = default;

  /// Every guard of `body` (an `if` whose condition is a threshold
  /// comparison), in for_each_child's pre-order: a guard, then the guards
  /// of its then-arm, then those of its else-arm.
  explicit ThresholdRegistry(const ExprP& body);

  const std::vector<ThresholdInfo>& all() const { return infos_; }
  bool empty() const { return infos_.empty(); }
  size_t size() const { return infos_.size(); }

  /// Render the branching tree (indented text), Fig. 5 style.
  std::string tree_str() const;

 private:
  std::vector<ThresholdInfo> infos_;
};

}  // namespace incflat
