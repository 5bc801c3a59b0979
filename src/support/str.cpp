#include "src/support/str.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>

namespace incflat {

std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_us(double us) {
  if (!std::isfinite(us)) return "inf";
  if (us < 1e3) return fmt_double(us, 1) + "us";
  if (us < 1e6) return fmt_double(us / 1e3, 2) + "ms";
  return fmt_double(us / 1e6, 3) + "s";
}

std::string repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n > 0 ? n : 0));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

std::optional<double> parse_finite(const std::string& text) {
  // strtod, not stod: an underflow ("1e-400") reads as the denormal or zero
  // it rounds to instead of throwing; an overflow reads as infinity.
  const char* p = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p || end != p + text.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<int64_t> exact_int(double v, int64_t lo, int64_t hi) {
  // [-2^63, 2^63) is int64's range; NaN fails the test.
  if (!(v >= -0x1p63 && v < 0x1p63) || v != std::floor(v)) return std::nullopt;
  const auto i = static_cast<int64_t>(v);
  if (i < lo || i > hi) return std::nullopt;
  return i;
}

namespace {

/// Leading white space is skipped, as strtoll and stod skip it.
const char* skip_space(const std::string& text) {
  const char* p = text.c_str();
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  return p;
}

[[noreturn]] void refuse(const std::string& what, const std::string& want,
                         const std::string& text) {
  throw IoError(what + ": want " + want + ", got '" + text + "'");
}

}  // namespace

std::optional<int64_t> parse_int(const std::string& text, int64_t lo,
                                 int64_t hi) {
  const char* p = skip_space(text);
  const char* end = text.data() + text.size();
  if (*p == '+' && p[1] != '-') ++p;
  int64_t v = 0;
  const auto [q, ec] = std::from_chars(p, end, v);
  if (q == end && ec != std::errc::invalid_argument) {  // sign and digits
    if (ec == std::errc{} && v >= lo && v <= hi) return v;
    return std::nullopt;
  }
  const std::optional<double> d = parse_finite(text);
  return d ? exact_int(*d, lo, hi) : std::nullopt;
}

std::optional<uint64_t> parse_uint(const std::string& text, int base) {
  const char* p = skip_space(text);
  const char* end = text.data() + text.size();
  if (base == 0) {
    base = 10;
    if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
      p += 2;
      base = 16;
    } else if (p[0] == '0' && p + 1 != end) {
      ++p;
      base = 8;
    }
  }
  uint64_t v = 0;
  const auto [q, ec] = std::from_chars(p, end, v, base);
  if (q != end || ec != std::errc{}) return std::nullopt;
  return v;
}

double read_real(const std::string& what, const std::string& text, double lo,
                 double hi) {
  const std::optional<double> v = parse_finite(text);
  if (v && *v >= lo && *v <= hi) return *v;
  std::ostringstream range;
  range << std::setprecision(15) << "a finite number in [" << lo << ", " << hi
        << "]";
  refuse(what, range.str(), text);
}

int64_t read_int(const std::string& what, const std::string& text,
                 int64_t lo, int64_t hi) {
  if (const std::optional<int64_t> v = parse_int(text, lo, hi)) return *v;
  refuse(what, "an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]",
         text);
}

uint64_t read_seed(const std::string& what, const std::string& text) {
  if (const std::optional<uint64_t> v = parse_uint(text)) return *v;
  refuse(what, "an unsigned 64-bit integer (decimal, 0x hex or 0 octal)",
         text);
}

std::vector<SpecItem> split_spec(const std::string& list,
                                 const std::string& what,
                                 const std::string& seps) {
  std::vector<SpecItem> items;
  for (size_t pos = 0; pos < list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    SpecItem it;
    it.text = list.substr(pos, comma - pos);
    pos = comma + 1;
    if (it.text.empty()) continue;
    const size_t at = it.text.find_first_of(seps);
    if (at == std::string::npos) {
      throw IoError(what + ": expected key=value, got '" + it.text + "'");
    }
    it.key = it.text.substr(0, at);
    it.sep = it.text[at];
    it.value = it.text.substr(at + 1);
    items.push_back(std::move(it));
  }
  return items;
}

bool ArgReader::next() {
  if (++i_ >= argc_) return false;
  arg_ = argv_[i_];
  return true;
}

std::string ArgReader::value() {
  if (i_ + 1 >= argc_) fail(arg_ + ": needs a value");
  return argv_[++i_];
}

int64_t ArgReader::integer(int64_t lo, int64_t hi) {
  return check([&] { return read_int(arg_, value(), lo, hi); });
}

double ArgReader::real(double lo, double hi) {
  return check([&] { return read_real(arg_, value(), lo, hi); });
}

uint64_t ArgReader::seed() {
  return check([&] { return read_seed(arg_, value()); });
}

std::optional<uint64_t> ArgReader::env_seed(const char* var) const {
  const char* v = std::getenv(var);
  if (!v) return std::nullopt;
  return check([&] { return read_seed(var, v); });
}

void ArgReader::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_, message.c_str());
  std::exit(2);
}

}  // namespace incflat
