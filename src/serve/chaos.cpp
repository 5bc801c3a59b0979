#include "src/serve/chaos.h"

#include <algorithm>

#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat::serve {

namespace {

double parse_rate(const std::string& key, const std::string& text,
                  double hi = 1.0) {
  const std::optional<double> v = parse_finite(text);
  if (v && *v >= 0 && *v <= hi) return *v;
  throw IoError("net-chaos: bad value for '" + key + "': '" + text +
                "' (want a number in [0, " + fmt_double(hi, 0) + "])");
}

}  // namespace

NetChaosSpec parse_net_chaos(const std::string& spec) {
  NetChaosSpec s;
  if (spec.empty() || spec == "off") return s;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw IoError("net-chaos: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "dribble") {
      s.dribble = parse_rate(key, val);
    } else if (key == "partial-write") {
      s.partial_write = parse_rate(key, val);
    } else if (key == "stall") {
      s.stall = parse_rate(key, val);
    } else if (key == "reset") {
      s.reset = parse_rate(key, val);
    } else if (key == "accept-fail") {
      s.accept_fail = parse_rate(key, val);
    } else if (key == "stall-us") {
      s.stall_us = parse_rate(key, val, 1e9);
    } else if (key == "all") {
      // Re-chunking kinds at the full rate, destructive kinds at a tenth:
      // "all=0.3" is a usefully hostile network, not an unusable one.
      const double r = parse_rate(key, val);
      s.dribble = s.partial_write = r;
      s.stall = s.reset = s.accept_fail = r / 10;
    } else {
      throw IoError("net-chaos: unknown key '" + key + "'");
    }
  }
  return s;
}

std::string net_chaos_str(const NetChaosSpec& spec) {
  if (!spec.enabled()) return "off";
  std::string out;
  const auto add = [&out](const char* key, double v) {
    if (v <= 0) return;
    if (!out.empty()) out += ",";
    out += key;
    out += "=";
    out += fmt_double(v, 6);
  };
  add("dribble", spec.dribble);
  add("partial-write", spec.partial_write);
  add("stall", spec.stall);
  add("reset", spec.reset);
  add("accept-fail", spec.accept_fail);
  if (spec.stall > 0) add("stall-us", spec.stall_us);
  return out;
}

size_t NetChaos::read_cap(size_t want) {
  if (spec_.dribble <= 0 || want <= 1 || !rng_.flip(spec_.dribble)) {
    return want;
  }
  ++counts_.dribbles;
  if (trace::enabled()) trace::count("chaos.dribbles");
  const size_t cap = static_cast<size_t>(rng_.uniform_int(1, 16));
  return std::min(want, cap);
}

size_t NetChaos::write_cap(size_t want) {
  if (spec_.partial_write <= 0 || want <= 1 ||
      !rng_.flip(spec_.partial_write)) {
    return want;
  }
  ++counts_.partial_writes;
  if (trace::enabled()) trace::count("chaos.partial_writes");
  // Truncate somewhere strictly inside the buffer; length-prefix frames
  // make the first few bytes the interesting place to cut.
  return static_cast<size_t>(
      rng_.uniform_int(1, static_cast<int64_t>(want) - 1));
}

bool NetChaos::reset_conn() {
  if (spec_.reset <= 0 || !rng_.flip(spec_.reset)) return false;
  ++counts_.resets;
  if (trace::enabled()) trace::count("chaos.resets");
  return true;
}

double NetChaos::stall_us() {
  if (spec_.stall <= 0 || !rng_.flip(spec_.stall)) return 0;
  ++counts_.stalls;
  if (trace::enabled()) trace::count("chaos.stalls");
  return spec_.stall_us;
}

bool NetChaos::accept_fail() {
  if (spec_.accept_fail <= 0 || !rng_.flip(spec_.accept_fail)) return false;
  ++counts_.accept_fails;
  if (trace::enabled()) trace::count("chaos.accept_fails");
  return true;
}

}  // namespace incflat::serve
