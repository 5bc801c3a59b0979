// Checked int64 arithmetic on sizes: dataset dimensions, element, point
// and thread counts, loop trip counts.  Both cost models add and multiply
// sizes, and evaluate a program's size division, only through these — the
// IR walker (src/gpusim/cost.cpp, with SizeProd::eval and Type::count)
// through the throwing form, the plan's cost arena (src/plan/costexpr.cpp)
// through the flag form — so a result past int64, INT64_MIN / -1 included,
// is an EvalError in the walker and a poisoned value in the plan, and the
// two still agree on which datasets they cannot price.
// Kernel-launch counts, which a host loop multiplies by its trip count,
// saturate at the int64 limits instead (saturating_add/mul): a launch
// count is reported, never used as a size, and both cost models then
// agree on it without failing a run they can otherwise price.
#pragma once

#include <cstdint>
#include <limits>
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

/// `*out = a / b`, truncating toward zero, and 0 when b is 0 (the cost
/// models' size division); false for INT64_MIN / -1, whose quotient does
/// not fit.
inline bool checked_div(int64_t a, int64_t b, int64_t* out) {
  if (b == -1 && a == std::numeric_limits<int64_t>::min()) return false;
  *out = b == 0 ? 0 : a / b;
  return true;
}

/// a + b (a * b), clamped to the int64 range when the exact result does
/// not fit.
inline int64_t saturating_add(int64_t a, int64_t b) {
  int64_t r = 0;
  if (checked_add(a, b, &r)) return r;
  return b < 0 ? std::numeric_limits<int64_t>::min()
               : std::numeric_limits<int64_t>::max();
}
inline int64_t saturating_mul(int64_t a, int64_t b) {
  int64_t r = 0;
  if (checked_mul(a, b, &r)) return r;
  return (a < 0) != (b < 0) ? std::numeric_limits<int64_t>::min()
                            : std::numeric_limits<int64_t>::max();
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

/// a / b, and 0 when b is 0; throws EvalError for INT64_MIN / -1.
inline int64_t size_div(int64_t a, int64_t b) {
  int64_t r = 0;
  if (!checked_div(a, b, &r)) detail::throw_size_overflow(a, "/", b);
  return r;
}

}  // namespace incflat
