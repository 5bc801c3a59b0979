#include "src/serve/chaos.h"

#include <algorithm>

#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat::serve {

NetChaosSpec parse_net_chaos(const std::string& spec) {
  NetChaosSpec s;
  if (spec.empty() || spec == "off") return s;
  for (const SpecItem& it : split_spec(spec, "net-chaos")) {
    const std::string what = "net-chaos: " + it.key;
    if (it.key == "stall-us") {
      s.stall_us = read_real(what, it.value, 0, 1e9);
      continue;
    }
    const double r = read_real(what, it.value, 0, 1);
    if (it.key == "dribble") {
      s.dribble = r;
    } else if (it.key == "partial-write") {
      s.partial_write = r;
    } else if (it.key == "stall") {
      s.stall = r;
    } else if (it.key == "reset") {
      s.reset = r;
    } else if (it.key == "accept-fail") {
      s.accept_fail = r;
    } else if (it.key == "all") {
      // Re-chunking kinds at the full rate, destructive kinds at a tenth:
      // "all=0.3" is a usefully hostile network, not an unusable one.
      s.dribble = s.partial_write = r;
      s.stall = s.reset = s.accept_fail = r / 10;
    } else {
      throw IoError("net-chaos: unknown key '" + it.key + "'");
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
