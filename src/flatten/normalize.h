// A-normalisation with respect to parallelism (paper Sec. 2: "We assume
// A-normal form").
//
// The flattening rules dispatch on the *head* of an expression, so a SOAC
// buried inside a scalar operator (e.g. `1/(1+exp(-(redomap ...)))` in
// Backprop's neuron function) would otherwise be invisible to distribution.
// This pass hoists every SOAC occurring in an operand position — binop/unop
// operands, if conditions, index subscripts, loop counts and initialisers,
// replicate elements, SOAC neutral elements and SOAC array operands — into
// a fresh let binding directly above the consuming expression.  (An inline
// SOAC array operand may depend on an enclosing map's parameters, which the
// flattener could not hoist out of the map-nest context.)
#pragma once

#include "src/ir/expr.h"

namespace incflat {

/// Normalise a type-annotated program.  Each new variable takes the bound
/// expression's types, each new `let` its body's, and every rebuilt node
/// keeps its own.
Program normalize_program(Program p);

/// Expression-level entry point (exposed for tests).
ExprP normalize_expr(const ExprP& e);

}  // namespace incflat
