#include "src/ir/type.h"

#include <sstream>

#include "src/support/checked.h"
#include "src/support/error.h"
#include "src/support/str.h"

namespace incflat {

const char* scalar_name(Scalar s) {
  switch (s) {
    case Scalar::I32: return "i32";
    case Scalar::I64: return "i64";
    case Scalar::F32: return "f32";
    case Scalar::F64: return "f64";
    case Scalar::Bool: return "bool";
  }
  return "?";
}

int scalar_bytes(Scalar s) {
  switch (s) {
    case Scalar::I32:
    case Scalar::F32: return 4;
    case Scalar::I64:
    case Scalar::F64: return 8;
    case Scalar::Bool: return 1;
  }
  return 4;
}

bool scalar_is_float(Scalar s) {
  return s == Scalar::F32 || s == Scalar::F64;
}

bool scalar_is_int(Scalar s) { return s == Scalar::I32 || s == Scalar::I64; }

Dim Dim::c(int64_t v) {
  Dim d;
  d.kind = Kind::Const;
  d.cval = v;
  return d;
}

Dim Dim::v(std::string name) {
  Dim d;
  d.kind = Kind::Var;
  d.var = std::move(name);
  return d;
}

int64_t Dim::eval(const SizeEnv& env) const {
  if (kind == Kind::Const) return cval;
  auto it = env.find(var);
  if (it == env.end()) {
    throw EvalError("unbound size variable: " + var);
  }
  return it->second;
}

bool Dim::operator==(const Dim& o) const {
  if (kind != o.kind) return false;
  return kind == Kind::Const ? cval == o.cval : var == o.var;
}

std::string Dim::str() const {
  return kind == Kind::Const ? std::to_string(cval) : var;
}

Type Type::row() const {
  INCFLAT_CHECK(rank() >= 1, "row() of scalar type");
  return Type(elem, std::vector<Dim>(shape.begin() + 1, shape.end()));
}

Type Type::peel(int n) const {
  INCFLAT_CHECK(n <= rank(), "peel() beyond rank");
  return Type(elem, std::vector<Dim>(shape.begin() + n, shape.end()));
}

Type Type::expand(const std::vector<Dim>& outer) const {
  std::vector<Dim> s = outer;
  s.insert(s.end(), shape.begin(), shape.end());
  return Type(elem, std::move(s));
}

int64_t Type::count(const SizeEnv& env) const {
  int64_t n = 1;
  for (const auto& d : shape) n = size_mul(n, d.eval(env));
  return n;
}

bool Type::operator==(const Type& o) const {
  return elem == o.elem && shape == o.shape;
}

std::string Type::str() const {
  std::ostringstream os;
  for (const auto& d : shape) os << "[" << d.str() << "]";
  os << scalar_name(elem);
  return os.str();
}

}  // namespace incflat
