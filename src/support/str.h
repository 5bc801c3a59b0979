// Small string-building helpers shared across the pretty-printer, the cost
// reports, and the benchmark tables.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace incflat {

/// Join the string forms of a range with a separator.
template <typename Range, typename Fn>
std::string join_map(const Range& r, const std::string& sep, Fn&& fn) {
  std::ostringstream os;
  bool first = true;
  for (const auto& x : r) {
    if (!first) os << sep;
    first = false;
    os << fn(x);
  }
  return os.str();
}

/// Join a range of strings (or stream-printable values) with a separator.
template <typename Range>
std::string join(const Range& r, const std::string& sep) {
  return join_map(r, sep, [](const auto& x) {
    std::ostringstream os;
    os << x;
    return os.str();
  });
}

/// printf-free number formatting with fixed precision.
std::string fmt_double(double v, int precision = 2);

/// Human-readable engineering formatting of a microsecond duration.
std::string fmt_us(double us);

/// Repeat a string n times.
std::string repeat(const std::string& s, int n);

/// The finite number spelling all of `text` (std::stod's syntax), else
/// nullopt.  Spec parsers read numbers through it so that NaN, which fails
/// no range check because every comparison with it is false, is refused.
std::optional<double> parse_finite(const std::string& text);

}  // namespace incflat
