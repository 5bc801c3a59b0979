// Symbolic size algebra for degree-of-parallelism expressions.
//
// Rule G3 guards code versions with predicates `Par(Σ') >= t_top` and
// `Par(e_middle) >= t_intra` (paper Sec. 3.2).  Par(...) is a symbolic
// expression over dataset-dependent dimensions.  A SizeProd is a product of
// dimensions; a SizeExpr is the maximum over several products (needed for
// Par(e) of a body whose branches expose different inner parallelism).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ir/type.h"

namespace incflat {

/// Declared range of a size variable: `lo <= v` and, when `hi >= 0`, also
/// `v <= hi`.  Size variables are at least 1 even without a declaration
/// (an empty dimension makes the whole nest empty).  Bounds are *dataset
/// invariants* stated by the program author — e.g. "Heston always prices
/// 1024 paths of 32 steps" — and every evaluation/tuning dataset must
/// satisfy them.  They feed the static size analysis (src/analysis/) only;
/// program semantics never depend on them, so running a program on
/// out-of-bounds sizes still computes the right values (all guarded code
/// versions are semantically equivalent) — only version *selection* quality
/// is promised for in-bounds datasets.
struct SizeBound {
  int64_t lo = 1;
  int64_t hi = -1;  // < 0: unbounded above

  bool bounded_above() const { return hi >= 0; }
};

/// Declared bounds per size-variable name; absent names default to [1, inf).
using SizeBounds = std::map<std::string, SizeBound>;

/// Product of symbolic dimensions; the constant factors are folded eagerly.
struct SizeProd {
  int64_t konst = 1;
  std::vector<Dim> vars;  // only Kind::Var dims

  static SizeProd one() { return SizeProd{}; }
  static SizeProd of(const Dim& d);

  SizeProd& operator*=(const Dim& d);
  SizeProd& operator*=(const SizeProd& o);

  int64_t eval(const SizeEnv& env) const;
  std::string str() const;
  bool operator==(const SizeProd& o) const;
};

/// max over a set of products (empty set denotes the degenerate size 1).
struct SizeExpr {
  std::vector<SizeProd> alts;

  static SizeExpr one();
  static SizeExpr of(const SizeProd& p);
  static SizeExpr of(const Dim& d);

  /// Pointwise product: (max_i a_i) * p  ==  max_i (a_i * p).
  SizeExpr times(const SizeProd& p) const;

  /// Maximum of two size expressions.
  SizeExpr max_with(const SizeExpr& o) const;

  int64_t eval(const SizeEnv& env) const;
  std::string str() const;
  bool operator==(const SizeExpr& o) const;
};

}  // namespace incflat
