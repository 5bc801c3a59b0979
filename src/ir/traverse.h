// Structural traversals over the expression AST: free variables, SOAC
// occurrence checks, binder-aware renaming, and node counting.
#pragma once

#include <map>
#include <set>
#include <string>

#include "src/ir/expr.h"

namespace incflat {

/// Free variable names of `e`.  Size variables inside Dims (iota/replicate
/// counts) are included, since datasets bind them in the value environment
/// too.  Names bound by lambdas, lets, loops, and seg-space binders are
/// excluded within their scope.
std::set<std::string> free_vars(const ExprP& e);

/// True if `e` contains any source-language SOAC (map/reduce/scan/redomap/
/// scanomap) or target seg-op anywhere, including inside lambdas.  This is
/// the "has inner SOACs" test of rules G2/G3.
bool has_soacs(const ExprP& e);

/// Capture-avoiding renaming of free variables according to `sub`.  Bound
/// names shadow entries of `sub`.  The input tree is not modified.
ExprP rename(const ExprP& e, const std::map<std::string, std::string>& sub);

/// Substitute expressions for free variables (used by the flattening pass to
/// sink cheap sequential bindings into distributed kernels).  Binders shadow
/// substituted names; programs are assumed to use globally unique binder
/// names so substituted expressions cannot be captured.
ExprP subst_vars(const ExprP& e, const std::map<std::string, ExprP>& sub);

/// Number of AST nodes (code-size metric for the ablation experiments).
int64_t count_nodes(const ExprP& e);

/// Number of seg-op nodes (generated kernel versions metric).
int64_t count_segops(const ExprP& e);

/// Names of all threshold parameters occurring in guard predicates, in
/// left-to-right discovery order.
std::vector<std::string> collect_thresholds(const ExprP& e);

}  // namespace incflat
