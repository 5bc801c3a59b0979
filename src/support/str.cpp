#include "src/support/str.h"

#include <cmath>
#include <iomanip>
#include <stdexcept>

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
  try {
    size_t consumed = 0;
    const double v = std::stod(text, &consumed);
    if (consumed == text.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {  // no number, or out of double's range
  }
  return std::nullopt;
}

}  // namespace incflat
