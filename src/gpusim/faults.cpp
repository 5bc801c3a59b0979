#include "src/gpusim/faults.h"

#include <sstream>

#include "src/support/error.h"
#include "src/support/str.h"

namespace incflat {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::LaunchFailed: return "launch-failed";
    case FaultKind::LaunchTimeout: return "launch-timeout";
    case FaultKind::LocalAllocFailed: return "local-alloc-failed";
    case FaultKind::DeviceLost: return "device-lost";
  }
  return "?";
}

namespace {

double parse_rate(const std::string& key, const std::string& text) {
  if (const std::optional<double> v = parse_finite(text)) return *v;
  throw IoError("faults: bad rate for '" + key + "': '" + text + "'");
}

FaultKind scriptable_kind(const std::string& key) {
  if (key == "launch-failed") return FaultKind::LaunchFailed;
  if (key == "launch-timeout") return FaultKind::LaunchTimeout;
  if (key == "local-alloc") return FaultKind::LocalAllocFailed;
  if (key == "device-lost") return FaultKind::DeviceLost;
  throw IoError("faults: unknown fault kind '" + key + "'");
}

const char* scriptable_key(FaultKind k) {
  switch (k) {
    case FaultKind::LaunchFailed: return "launch-failed";
    case FaultKind::LaunchTimeout: return "launch-timeout";
    case FaultKind::LocalAllocFailed: return "local-alloc";
    case FaultKind::DeviceLost: return "device-lost";
    case FaultKind::None: break;
  }
  throw IoError("faults: kind cannot be scripted");
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec s;
  if (spec.empty() || spec == "off" || spec == "none") return s;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    const size_t at = item.find('@');
    if (at != std::string::npos && (eq == std::string::npos || at < eq)) {
      // Scripted entry: kind@launch-index.
      const std::string key = item.substr(0, at);
      const std::string ix_text = item.substr(at + 1);
      int64_t ix = 0;
      try {
        size_t consumed = 0;
        ix = std::stoll(ix_text, &consumed);
        if (consumed != ix_text.size() || ix < 0) throw IoError("bad index");
      } catch (const std::exception&) {
        throw IoError("faults: bad launch index in '" + item + "'");
      }
      s.script.emplace_back(ix, scriptable_kind(key));
      continue;
    }
    if (eq == std::string::npos) {
      throw IoError("faults: expected key=rate or kind@index, got '" + item +
                    "'");
    }
    const std::string key = item.substr(0, eq);
    const double v = parse_rate(key, item.substr(eq + 1));
    if (key == "noise") {
      if (v < 0 || v >= 1) {
        throw IoError("faults: noise must be in [0, 1): " + item);
      }
      s.noise = v;
      continue;
    }
    if (v < 0 || v > 1) {
      throw IoError("faults: rate must be in [0, 1]: " + item);
    }
    if (key == "launch-failed") {
      s.launch_failed = v;
    } else if (key == "launch-timeout") {
      s.launch_timeout = v;
    } else if (key == "local-alloc") {
      s.local_alloc = v;
    } else if (key == "device-lost") {
      s.device_lost = v;
    } else if (key == "all") {
      s.launch_failed = s.launch_timeout = s.local_alloc = s.device_lost =
          v / 4;
    } else {
      throw IoError("faults: unknown fault kind '" + key + "'");
    }
  }
  if (s.launch_rate() > 1.0) {
    throw IoError("faults: launch fault rates sum to more than 1");
  }
  return s;
}

std::string fault_spec_str(const FaultSpec& spec) {
  if (!spec.enabled()) return "off";
  std::ostringstream os;
  const char* sep = "";
  const auto emit = [&](const char* key, double v) {
    if (v <= 0) return;
    os << sep << key << "=" << fmt_double(v, 6);
    sep = ",";
  };
  emit("launch-failed", spec.launch_failed);
  emit("launch-timeout", spec.launch_timeout);
  emit("local-alloc", spec.local_alloc);
  emit("device-lost", spec.device_lost);
  emit("noise", spec.noise);
  for (const auto& [ix, kind] : spec.script) {
    os << sep << scriptable_key(kind) << "@" << ix;
    sep = ",";
  }
  return os.str();
}

FaultKind FaultPlan::next_launch() {
  const int64_t ix = launch_ix_++;
  const auto it = script_.find(ix);
  if (it != script_.end()) return it->second;
  if (spec_.launch_rate() <= 0) return FaultKind::None;
  const double u = launch_rng_.uniform();
  double edge = spec_.launch_failed;
  if (u < edge) return FaultKind::LaunchFailed;
  edge += spec_.launch_timeout;
  if (u < edge) return FaultKind::LaunchTimeout;
  edge += spec_.local_alloc;
  if (u < edge) return FaultKind::LocalAllocFailed;
  edge += spec_.device_lost;
  if (u < edge) return FaultKind::DeviceLost;
  return FaultKind::None;
}

double FaultPlan::noise_factor() {
  if (spec_.noise <= 0) return 1.0;
  return 1.0 + spec_.noise * (2.0 * noise_rng_.uniform() - 1.0);
}

}  // namespace incflat
