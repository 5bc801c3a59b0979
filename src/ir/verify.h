// On-demand structural verification of compiler IR.
//
// The pipeline's correctness contract is property-tested end to end
// (tests/test_property.cpp), but property tests only run in the test suite.
// verify_program promotes the structural parts of those invariants into
// checks that any pipeline stage can run on its current program:
//
//   * types   — the program re-typechecks from scratch (source or target),
//               and every node's `types` and every lambda parameter's type
//               equal those the fresh check computes: the passes annotate
//               what they build and never re-typecheck, so a wrong
//               annotation would otherwise reach the plan builder;
//   * levels  — target level discipline: a level-0 seg-op is fully
//               sequential, a level-l seg-op directly contains only
//               level-(l-1) seg-ops;
//   * guards  — guard exhaustiveness: threshold comparisons appear only as
//               `if` conditions, and never inside a seg-op (every code
//               version is chosen on the host before any launch, which is
//               what lets the plan builder lower each guard to a tree node,
//               src/plan/plan.h); each threshold is compared by at most one
//               guard (so the registry read off the guards names each
//               tuning parameter once, src/flatten/thresholds.h, and a
//               plan guard's index is its threshold's slot); and every
//               intra-group code version (a level>=1 seg-op with parallel
//               body, which must fit a hardware workgroup) sits in the
//               then-arm of a guard that carries the matching workgroup-fit
//               bound — so the else-most fallback arm of every guard chain
//               is feasible on any device;
//   * segbinds — seg-space well-formedness: per-level params/arrays arity
//               match, no duplicate parameter within a space, and every
//               source array resolves to an enclosing binding or an outer
//               level of the same space (no dangling seg-space bindings).
//
// All checks are vacuously true on source programs (which contain no
// seg-ops and no thresholds), so a verifier can run after *any* pass.
//
// Unlike a fail-fast assert, verification *collects*: every enabled check
// runs to completion and each violation becomes one structured Diagnostic
// (src/support/diag.h) with an IR path locating the node.  If any were
// found, VerifyError is thrown carrying the complete list, so a failing
// `--verify-each` run reports everything wrong with the program at once.
#pragma once

#include <string>
#include <vector>

#include "src/ir/expr.h"
#include "src/support/diag.h"
#include "src/support/error.h"

namespace incflat {

/// Verification failure: one or more structural invariants do not hold.
/// Carries every Diagnostic collected over the whole program; `check()` and
/// `context()` report the first finding's attribution (the historical
/// single-violation interface).
class VerifyError : public CompilerError {
 public:
  VerifyError(std::string check, std::string context,
              const std::string& detail);
  explicit VerifyError(std::vector<Diagnostic> diags);

  const std::string& check() const { return diags_.front().check; }
  const std::string& context() const { return diags_.front().context; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

 private:
  std::vector<Diagnostic> diags_;
};

struct VerifyOptions {
  bool types = true;
  bool levels = true;
  bool guards = true;
  bool segbinds = true;
};

/// Run the selected checks on `p` and return every violation found (empty
/// means the program verifies).  `context` names the pipeline position for
/// attribution.
std::vector<Diagnostic> verify_diagnostics(const Program& p,
                                           const std::string& context =
                                               "verify",
                                           const VerifyOptions& opts = {});

/// Run the selected checks on `p`; throws VerifyError carrying the full
/// diagnostic list if any violation was found.
void verify_program(const Program& p, const std::string& context = "verify",
                    const VerifyOptions& opts = {});

}  // namespace incflat
