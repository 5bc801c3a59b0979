// Expression AST for the source and target languages.
//
// The source language is the paper's Fig. 1: a purely functional first-order
// expression language with second-order array combinators (SOACs): map,
// reduce, scan, redomap, scanomap, plus replicate / rearrange / iota / index,
// let, if, and a fixed-trip-count loop.  The target language (Sec. 2.1) adds
// segmap^l / segred^l / segscan^l, annotated with a hardware level l and a
// map-nest context Σ, and reinterprets the plain SOACs as *sequential*.
//
// Both languages share one AST; a target program is distinguished by using
// SegOp nodes (and guard predicates, represented as If over a ThresholdCmp
// condition).  Expressions are immutable and shared via shared_ptr, so
// flattening rules can freely reuse subtrees when emitting multiple code
// versions.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/ir/size.h"
#include "src/ir/type.h"

namespace incflat {

struct Expr;
using ExprP = std::shared_ptr<const Expr>;

/// A formal parameter (lambda or program input).
struct Param {
  std::string name;
  Type type;
};

/// First-order anonymous function passed to a SOAC.
struct Lambda {
  std::vector<Param> params;
  ExprP body;  // may evaluate to several results (TupleE)
};

/// One level ⟨x̄ ∈ ȳ⟩ of a map-nest context Σ: params drawn elementwise from
/// arrays, all of outer dimension `dim`.
struct SegBind {
  std::vector<std::string> params;  // bound names x̄
  std::vector<std::string> arrays;  // source array names ȳ
  Dim dim;                          // iteration count of this level
};

/// Map-nest context Σ, outermost level first.
using SegSpace = std::vector<SegBind>;

// ---------------------------------------------------------------------------
// Node payloads (std::variant alternatives).
// ---------------------------------------------------------------------------

struct VarE {
  std::string name;
};

struct ConstE {
  Scalar tag = Scalar::I64;
  int64_t i = 0;   // I32/I64/Bool payload (Bool: 0/1)
  double f = 0.0;  // F32/F64 payload
};

/// Binary scalar operator; `op` is one of "+","-","*","/","min","max","pow",
/// "<","<=","==","&&","||".  Division on ints truncates toward zero.
struct BinOpE {
  std::string op;
  ExprP lhs, rhs;
};

/// Unary scalar operator: "neg","exp","log","sqrt","abs","!","i2f","f2i".
struct UnOpE {
  std::string op;
  ExprP e;
};

struct IfE {
  ExprP cond, then_e, else_e;
};

/// Multi-binding let (A-normal form block): `let vars = rhs in body`.
struct LetE {
  std::vector<std::string> vars;
  ExprP rhs;
  ExprP body;
};

/// `loop (params = inits) for ivar < count do body` — tail-recursive loop
/// with a trip count known before entry (paper Fig. 1).
struct LoopE {
  std::vector<std::string> params;
  std::vector<ExprP> inits;
  std::string ivar;
  ExprP count;
  ExprP body;  // yields as many results as there are params
};

struct MapE {
  Lambda f;
  std::vector<ExprP> arrays;
};

struct ReduceE {
  Lambda op;  // associative; 2k params for k-array reduction
  std::vector<ExprP> neutral;
  std::vector<ExprP> arrays;
};

struct ScanE {
  Lambda op;
  std::vector<ExprP> neutral;
  std::vector<ExprP> arrays;
};

/// redomap ⊕ f d̄ x̄s  ==  reduce ⊕ d̄ (map f x̄s)   (paper Sec. 2).
struct RedomapE {
  Lambda red;
  Lambda mapf;
  std::vector<ExprP> neutral;
  std::vector<ExprP> arrays;
};

/// scanomap ⊕ f d̄ x̄s  ==  scan ⊕ d̄ (map f x̄s).
struct ScanomapE {
  Lambda red;
  Lambda mapf;
  std::vector<ExprP> neutral;
  std::vector<ExprP> arrays;
};

struct ReplicateE {
  Dim count;
  ExprP elem;
};

/// rearrange (d̄) x — static permutation of the dimensions of x.
struct RearrangeE {
  std::vector<int> perm;
  ExprP e;
};

struct IotaE {
  Dim count;
};

/// a[i_1, ..., i_k] — drops k outer dimensions.
struct IndexE {
  ExprP arr;
  std::vector<ExprP> idxs;
};

/// Multi-result aggregation (tuple-of-arrays representation).
struct TupleE {
  std::vector<ExprP> elems;
};

/// Target-language parallel construct: segmap^l / segred^l / segscan^l Σ e.
struct SegOpE {
  enum class Op { Map, Red, Scan };
  Op op = Op::Map;
  int level = 1;    // hardware level l
  SegSpace space;   // Σ, outermost first
  Lambda combine;   // reduction/scan operator (Red/Scan only)
  std::vector<ExprP> neutral;  // neutral elements (Red/Scan only)
  ExprP body;       // innermost mapped expression e

  /// Cost-model attribute: set by the tiling analysis when the body is a
  /// sequential redomap whose inputs vary over distinct space dimensions
  /// (matmul-like), enabling block tiling in scratchpad memory (Sec. 2.2).
  bool block_tiled = false;
};

/// Guard predicate `Par(size) >= threshold` introduced by rule G3/G9; the
/// threshold's concrete value is supplied at run time (autotuned).  For
/// intra-group versions the guard additionally requires the workgroup-level
/// parallelism to fit a single hardware workgroup (`fit <= max_group_size`),
/// mirroring the Futhark runtime's feasibility test.
struct ThresholdCmpE {
  std::string threshold;  // threshold parameter name
  SizeExpr par;           // symbolic degree of parallelism compared
  SizeExpr fit;           // required workgroup size; empty = unconstrained
};

// ---------------------------------------------------------------------------

using ExprNode =
    std::variant<VarE, ConstE, BinOpE, UnOpE, IfE, LetE, LoopE, MapE, ReduceE,
                 ScanE, RedomapE, ScanomapE, ReplicateE, RearrangeE, IotaE,
                 IndexE, TupleE, SegOpE, ThresholdCmpE>;

/// An immutable expression node.  `types` caches the result types (one entry
/// per result; SOACs over k arrays with an n-result lambda have n entries);
/// it is filled by the type checker and required by the flattening pass.
struct Expr {
  ExprNode node;
  std::vector<Type> types;

  explicit Expr(ExprNode n);
  Expr(ExprNode n, std::vector<Type> ts);

  template <typename T>
  const T* as() const {
    return std::get_if<T>(&node);
  }
  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(node);
  }

  /// The single result type; throws if the node has != 1 results.
  const Type& type() const;

  /// Structural facts about the children (traverse.h's for_each_child) and
  /// everything below them: a source SOAC or a seg-op, and a seg-op.  The
  /// constructor sets them once from the children's kinds and facts; a
  /// node is immutable once shared, so they never go stale.  has_soacs and
  /// has_segops (traverse.h) read them.
  bool soacs_below() const { return soacs_below_; }
  bool segops_below() const { return segops_below_; }

 private:
  void set_facts();

  bool soacs_below_ = false;
  bool segops_below_ = false;
};

/// Allocate an expression node (untyped; run the type checker to fill types).
ExprP mk(ExprNode n);
ExprP mk(ExprNode n, std::vector<Type> ts);

/// A complete program: named inputs (whose symbolic dims implicitly declare
/// the size parameters) and a body producing `body->types` results.
struct Program {
  std::string name;
  std::vector<Param> inputs;
  ExprP body;

  /// Size parameters not derivable from input shapes (e.g. loop trip counts
  /// such as LocVolCalib's numT); bound as i64 scalars like shape sizes.
  std::vector<std::string> extra_sizes;

  /// Declared dataset invariants on size variables (see SizeBound).  Used
  /// by the static size analysis to decide guards; never consulted by the
  /// interpreter or the cost model, so semantics are bounds-independent.
  SizeBounds size_bounds;

  /// All size-variable names: those mentioned in the input types (in
  /// first-use order) followed by `extra_sizes`.
  std::vector<std::string> size_params() const;
};

}  // namespace incflat
