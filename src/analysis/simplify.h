// The simplify-guards transformation: fold branch-tree guards the symbolic
// size analysis proves constant, delete the unreachable code versions, and
// drop the threshold parameters no surviving guard mentions.
//
// Three folding rules, each sound for *every* in-bounds dataset and every
// threshold assignment (see decide_guard in src/analysis/range.h):
//
//   F1 (device infeasibility)  — a guard whose workgroup-fit bound has an
//      interval lower bound above the device's max_group_size can never be
//      taken: keep only the else-version.
//   F2 (dominance)             — a guard over threshold t nested under an
//      enclosing guard over the *same* t whose outcome already determines
//      this one (par/fit dominance): keep the determined branch.
//   F3 (degenerate versions)   — both arms are the same IR (same_ir in
//      src/ir/traverse.h): the guard distinguishes nothing, keep the
//      then-arm.
//
// Because all code versions are semantically equivalent by construction,
// folding never changes program results — only which version the plan can
// select — and for in-bounds datasets the folded branch is exactly the one
// the unsimplified program would have taken, so gpusim cost estimates are
// bit-identical (asserted by bench/ablation_codesize and
// tests/test_analysis.cpp).
#pragma once

#include <cstdint>

#include "src/analysis/range.h"
#include "src/flatten/thresholds.h"
#include "src/ir/expr.h"

namespace incflat {
namespace analysis {

struct SimplifyStats {
  int64_t guards_folded = 0;      // If nodes whose guard was removed
  int64_t versions_pruned = 0;    // seg-ops deleted with unreachable arms
  int64_t thresholds_dropped = 0; // registry parameters removed
};

/// Fold decidable guards in `p` (in place) under its declared size bounds
/// and the given device limits, then drop unreferenced thresholds from
/// `reg` (their registry paths are rewritten to skip the folded guards).
/// Unknown limits (negative fields) restrict folding to device-independent
/// rules.  The caller re-runs prune-segbinds afterwards.
SimplifyStats simplify_guards(Program& p, ThresholdRegistry& reg,
                              const AnalysisLimits& lim);

}  // namespace analysis
}  // namespace incflat
