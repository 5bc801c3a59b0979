// Flattening: source-language nested parallelism -> target-language seg-ops.
//
// Three modes, matching the paper's evaluated compilers:
//
//  * Moderate (MF, prior work [32], Sec. 3.1): a single code version chosen
//    by a static heuristic — maps are distributed, perfectly nested
//    reduce/scan are parallelised, redomaps are sequentialised (enabling
//    tiling), loops are interchanged outwards (G7), all at hardware level 1.
//
//  * Incremental (IF, Sec. 3.2 — the paper's contribution): at every map
//    with inner parallelism, rule G3 emits three guarded versions (only
//    outer parallelism / outer + intra-group / continue flattening); rule G9
//    versions redomaps; rule G8 pushes map nests into branches.  Guards
//    compare symbolic degrees of parallelism with fresh threshold
//    parameters, later autotuned.
//
//  * Full: the moderate heuristic forced to always exploit every level of
//    parallelism (the approximation of NESL-style full flattening used for
//    the Sec. 5.3 comparison).
//
// The GPU has two hardware levels (Sec. 4.1): grid level 1 and workgroup
// level 0.  Flattening starts at level 1 with an empty map-nest context.
#pragma once

#include <string>

#include "src/flatten/thresholds.h"
#include "src/ir/expr.h"

namespace incflat {

enum class FlattenMode { Moderate, Incremental, Full };

const char* mode_name(FlattenMode m);

/// Inverse of mode_name; throws CompilerError (listing the valid modes) on
/// an unknown name.
FlattenMode mode_from_name(const std::string& name);

struct FlattenResult {
  Program program;               // target program, type-annotated
  ThresholdRegistry thresholds;  // program's guards; empty for Moderate/Full
};

struct FlattenOptions {
  /// Run producer-consumer fusion before flattening (Sec. 4).  The paper
  /// disables this for moderate flattening on Backprop (Sec. 5.3).
  bool fuse = true;
};

/// Flatten a type-annotated source program.  The result is annotated,
/// satisfies the target level discipline, and — for any threshold
/// assignment — computes the same values as the source (property-tested).
FlattenResult flatten(const Program& src, FlattenMode mode,
                      const FlattenOptions& opts = {});

/// Throws CompilerError unless `src`'s body carries types (an O(1) check).
/// flatten() and compile() call it on entry: the passes keep the caller's
/// annotations and never re-typecheck, so run typecheck_program first.
void require_typed_source(const Program& src);

}  // namespace incflat
