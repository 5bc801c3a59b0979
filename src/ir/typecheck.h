// Type checker for the source and target languages.
//
// Checking is also *annotation*: because Expr is immutable, the checker
// rebuilds the tree with every node's `types` field (and every lambda
// parameter's type) filled in.  A program is checked once, when it is
// built; compile() and flatten() require annotated input (the passes read
// array dims off types).  The passes then keep the program annotated — each
// types the nodes it builds — so the whole-program checker runs again only
// in the verifier (src/ir/verify.h), which compares every annotation with a
// fresh check.
//
// The target-language level discipline (paper Sec. 2.1) is enforced by
// check_level_discipline: a construct at level 0 contains only sequential
// code, and a construct at level l >= 1 directly contains only constructs at
// level l-1.
#pragma once

#include "src/ir/expr.h"

namespace incflat {

/// Type-check and annotate an expression under `env`.  Throws CompilerError
/// with a descriptive message on ill-typed input.
ExprP typecheck_expr(const ExprP& e, const TypeEnv& env);

/// Type-check and annotate a whole program (inputs seed the environment;
/// size parameters are bound as i64 scalars).
Program typecheck_program(Program p);

/// Verify the target-language level constraint: the host level may contain
/// seg-ops of any level, a level-l seg-op's body and combine operator only
/// level-(l-1) ones, and a level-0 seg-op none.  Throws CompilerError on
/// violation.
void check_level_discipline(const ExprP& e);

}  // namespace incflat
