// Small string-building helpers shared across the pretty-printer, the cost
// reports, and the benchmark tables, and the checked number readers.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/support/error.h"

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

// The one reader of numbers that come from outside: flags, environment
// variables, spec strings, .tuning and journal files, daemon requests.  A
// number is all of its text after any leading white space (no prefix, no
// truncated fraction, no wrapped sign) inside the reader's range; else the
// optional forms answer nullopt and the read_* forms throw
// IoError("<what>: want <range>, got '<text>'").

/// A finite number in strtod's syntax (an underflow reads as zero); NaN,
/// which passes no range check because every comparison with it is false,
/// is refused here.
std::optional<double> parse_finite(const std::string& text);

/// `v` as an int64 when it is an integer in [lo, hi], checked before
/// converting; the daemon reads JSON numbers through it.
std::optional<int64_t> exact_int(double v, int64_t lo, int64_t hi);

/// An integer in [lo, hi].  Digits with an optional sign are read exactly
/// (2^62 - 1 survives); another finite spelling (`1e3`, `8.0`) must be an
/// integer: `80abc` and `8080.9` are refused.
std::optional<int64_t> parse_int(const std::string& text, int64_t lo,
                                 int64_t hi);

/// A uint64 in `base`: no sign, nothing past 2^64 - 1.  Base 0 takes
/// strtoull's forms: decimal, 0x hex or 0 octal.
std::optional<uint64_t> parse_uint(const std::string& text, int base = 0);

double read_real(const std::string& what, const std::string& text, double lo,
                 double hi);
int64_t read_int(const std::string& what, const std::string& text,
                 int64_t lo, int64_t hi);
uint64_t read_seed(const std::string& what, const std::string& text);

/// One item of a "key=value,..." list, split at its first separator.
struct SpecItem {
  std::string text, key, value;
  char sep = 0;
};

/// The non-empty items of `list`; one with no separator from `seps` throws
/// IoError("<what>: expected key=value, got '<item>'").
std::vector<SpecItem> split_spec(const std::string& list,
                                 const std::string& what,
                                 const std::string& seps = "=");

/// A tool's command line, read flag by flag: a flag's value is the next
/// argument.  A missing or refused value prints "<tool>: <flag>: <reason>"
/// to stderr and exits 2.
class ArgReader {
 public:
  ArgReader(const char* tool, int argc, char** argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  /// Step to the next argument, arg(); false when none is left.
  bool next();
  const std::string& arg() const { return arg_; }

  std::string value();
  int64_t integer(int64_t lo, int64_t hi);
  double real(double lo, double hi);
  uint64_t seed();
  /// The seed in environment variable `var`, if it is set.
  std::optional<uint64_t> env_seed(const char* var) const;

  /// `read()`'s result; an IoError it throws is a usage error.
  template <typename Fn>
  auto check(Fn&& read) const -> decltype(read()) {
    try {
      return read();
    } catch (const IoError& e) {
      fail(e.what());
    }
  }
  /// Print "<tool>: <message>" to stderr and exit 2.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

}  // namespace incflat
