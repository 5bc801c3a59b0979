// The mode transform: flattening rules G0–G9 (paper Fig. 3/4).
//
// This is the core rewrite stage of the pipeline.  It consumes a fused,
// A-normalised, type-annotated source program and produces the target-IR
// body: seg-ops with map-nest contexts, and under incremental flattening
// guarded multi-versioned code, each guard comparing a fresh threshold
// parameter (the registry is read off these guards; src/flatten/thresholds.h).
// Every node it builds carries the types the checker would give it: a
// seg-op's are its body's expanded by the space's dims (segred reduces the
// innermost level away), as rules G6/G7 expand a distributed binding's.  It
// does not prune dead seg-space bindings or run tiling detection — those are
// separate downstream passes (see src/pass/).
#pragma once

#include "src/flatten/flatten.h"
#include "src/ir/expr.h"

namespace incflat {

/// Apply the mode's flattening rules to `anf` (which must be normalised and
/// type-annotated), starting at the GPU grid level (l = 1) with an empty
/// map-nest context; returns the type-annotated target body.
ExprP transform_program(const Program& anf, FlattenMode mode);

}  // namespace incflat
