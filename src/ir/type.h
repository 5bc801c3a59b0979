// Types of the source and target languages (paper Fig. 1 / Sec. 2.1).
//
// A type is a scalar element type plus a shape of symbolic dimensions.  The
// language supports only *regular* nested parallelism, so every dimension is
// either a compile-time constant or a named size variable bound by the
// program inputs; a concrete dataset supplies a SizeEnv mapping size
// variables to integers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace incflat {

/// Scalar element types.  F32/I32 match the paper's benchmarks (which are
/// f32-heavy); F64/I64 are provided for completeness and index arithmetic.
enum class Scalar { I32, I64, F32, F64, Bool };

const char* scalar_name(Scalar s);

/// Element width in bytes as seen by the GPU cost model.
int scalar_bytes(Scalar s);

bool scalar_is_float(Scalar s);
bool scalar_is_int(Scalar s);

/// Concrete sizes for symbolic dimension variables (one per dataset).
using SizeEnv = std::map<std::string, int64_t>;

/// One symbolic array dimension: a constant or a named size variable.
struct Dim {
  enum class Kind { Const, Var };
  Kind kind = Kind::Const;
  int64_t cval = 0;
  std::string var;

  static Dim c(int64_t v);
  static Dim v(std::string name);

  bool is_const() const { return kind == Kind::Const; }

  /// Evaluate under a size environment; throws EvalError on unbound vars.
  int64_t eval(const SizeEnv& env) const;

  bool operator==(const Dim& o) const;
  bool operator!=(const Dim& o) const { return !(*this == o); }

  std::string str() const;
};

/// An array (or scalar, when shape is empty) type.
struct Type {
  Scalar elem = Scalar::F32;
  std::vector<Dim> shape;

  Type() = default;
  Type(Scalar e, std::vector<Dim> s) : elem(e), shape(std::move(s)) {}

  static Type scalar(Scalar e) { return Type(e, {}); }
  static Type array(Scalar e, std::vector<Dim> s) {
    return Type(e, std::move(s));
  }

  int rank() const { return static_cast<int>(shape.size()); }
  bool is_scalar() const { return shape.empty(); }
  bool is_array() const { return !shape.empty(); }

  /// The type of one row (drops the outermost dimension).  Requires rank>=1.
  Type row() const;

  /// The type of an element after indexing with `n` indices.
  Type peel(int n) const;

  /// This type with extra outer dimensions prepended (array expansion, as
  /// performed by rules G6/G7 when a binding is distributed over a map nest).
  Type expand(const std::vector<Dim>& outer) const;

  /// Total element count under a size environment.
  int64_t count(const SizeEnv& env) const;

  bool operator==(const Type& o) const;
  bool operator!=(const Type& o) const { return !(*this == o); }

  std::string str() const;
};

/// Mapping from variable names to their types; threaded through the type
/// checker.
using TypeEnv = std::map<std::string, Type>;

/// One TypeEnv that a walk binds into and unbinds from in place: bind()
/// records what it overwrote in an undo log, and restore(m) undoes every
/// binding made since mark m, newest first.  A walk that marks on entering
/// a scope and restores on leaving it sees at every point exactly the
/// bindings a copy of the environment per scope would hold, without the
/// copies.  The flattening transform walks with one.
class ScopedTypeEnv {
 public:
  /// Binds `name` to `t`, shadowing the type it had, if any.
  void bind(const std::string& name, Type t);

  /// The type `name` is bound to, or null.
  const Type* find(const std::string& name) const;

  /// Every binding in scope.
  const TypeEnv& bindings() const { return env_; }

  size_t mark() const { return undo_.size(); }

  /// Undoes every binding made since mark `m`.
  void restore(size_t m);

  /// Undoes, when it goes out of scope, every binding made since it was
  /// constructed; restores on every return path, exceptions included.
  class Scope {
   public:
    explicit Scope(ScopedTypeEnv& env) : env_(env), mark_(env.mark()) {}
    ~Scope() { env_.restore(mark_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScopedTypeEnv& env_;
    size_t mark_;
  };

 private:
  /// One binding: the entry it wrote and the type the name had before
  /// (none if the binding inserted it).  A std::map iterator stays valid
  /// until its own record is undone, because restore undoes records newest
  /// first and erases only entries their records inserted.
  struct Undo {
    TypeEnv::iterator at;
    std::optional<Type> old;
  };

  TypeEnv env_;
  std::vector<Undo> undo_;
};

}  // namespace incflat
