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
  for (const SpecItem& it : split_spec(spec, "faults", "=@")) {
    const std::string what = "faults: " + it.text;
    if (it.sep == '@') {  // scripted entry: kind@launch-index
      const int64_t ix = read_int(what, it.value, 0, INT64_MAX);
      s.script.emplace_back(ix, scriptable_kind(it.key));
      continue;
    }
    const double v = read_real(what, it.value, 0, 1);
    if (it.key == "noise") {
      if (v >= 1) throw IoError("faults: noise must be in [0, 1): " + it.text);
      s.noise = v;
    } else if (it.key == "launch-failed") {
      s.launch_failed = v;
    } else if (it.key == "launch-timeout") {
      s.launch_timeout = v;
    } else if (it.key == "local-alloc") {
      s.local_alloc = v;
    } else if (it.key == "device-lost") {
      s.device_lost = v;
    } else if (it.key == "all") {
      s.launch_failed = s.launch_timeout = s.local_alloc = s.device_lost =
          v / 4;
    } else {
      throw IoError("faults: unknown fault kind '" + it.key + "'");
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
