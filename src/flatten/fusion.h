// Producer-consumer fusion (paper Sec. 4: "aggressive fusion [30, 31] is
// performed prior to flattening").
//
// The subset implemented here is the one the evaluation depends on:
// map-into-reduce/scan fusion, i.e.
//
//   let ys = map f xs in reduce ⊕ v ys   ==>   redomap ⊕ f v xs
//   let ys = map f xs in scan   ⊕ v ys   ==>   scanomap ⊕ f v xs
//
// (also through an interposed let, when ys is not referenced afterwards).
// Sec. 5.3 notes that for Backprop this fusion was *explicitly prevented*
// for moderate flattening — the harness reproduces that with
// FlattenOptions::fuse = false.
#pragma once

#include "src/ir/expr.h"

namespace incflat {

/// Fuse map-into-reduce/scan chains in an annotated program; each fused
/// node takes the types of the consumer it replaces.
Program fuse_program(Program p);

/// Expression-level entry point (exposed for tests).
ExprP fuse_expr(const ExprP& e);

/// Number of redomap/scanomap nodes (fusion effectiveness metric).
int64_t count_fused(const ExprP& e);

}  // namespace incflat
