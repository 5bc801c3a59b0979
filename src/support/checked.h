// Checked int64 arithmetic on sizes: dataset dimensions, element, point
// and thread counts, loop trip counts.  Both cost models add and multiply
// sizes only through these — the IR walker (src/gpusim/cost.cpp, with
// SizeProd::eval and Type::count) through the throwing form, the plan's
// cost arena (src/plan/costexpr.cpp) through the flag form — so a result
// past int64 is an EvalError in the walker and a poisoned value in the
// plan, and the two still agree on which datasets they cannot price.
#pragma once

#include <cstdint>
#include <string>

#include "src/support/error.h"

namespace incflat {

/// `*out = a + b` (`a - b`, `a * b`); false when the exact result does not
/// fit in int64, and `*out` is then meaningless.
inline bool checked_add(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_add_overflow(a, b, out);
}
inline bool checked_sub(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_sub_overflow(a, b, out);
}
inline bool checked_mul(int64_t a, int64_t b, int64_t* out) {
  return !__builtin_mul_overflow(a, b, out);
}

namespace detail {
[[noreturn]] inline void throw_size_overflow(int64_t a, const char* op,
                                             int64_t b) {
  throw EvalError("size arithmetic overflows int64: " + std::to_string(a) +
                  " " + op + " " + std::to_string(b));
}
}  // namespace detail

/// a + b (a - b, a * b); throws EvalError when it does not fit in int64.
inline int64_t size_add(int64_t a, int64_t b) {
  int64_t r = 0;
  if (!checked_add(a, b, &r)) detail::throw_size_overflow(a, "+", b);
  return r;
}
inline int64_t size_sub(int64_t a, int64_t b) {
  int64_t r = 0;
  if (!checked_sub(a, b, &r)) detail::throw_size_overflow(a, "-", b);
  return r;
}
inline int64_t size_mul(int64_t a, int64_t b) {
  int64_t r = 0;
  if (!checked_mul(a, b, &r)) detail::throw_size_overflow(a, "*", b);
  return r;
}

}  // namespace incflat
