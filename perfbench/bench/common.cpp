#include "bench/common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/support/sync.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const size_t ix = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(ix), v.end());
  return v[ix];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (const double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

void Samples::add(double v) {
  if (seen_ < kCapacity) {
    buf_[seen_] = v;
  } else {
    const auto j = static_cast<size_t>(
        rng_.uniform_int(0, static_cast<int64_t>(seen_)));
    if (j < kCapacity) buf_[j] = v;
  }
  ++seen_;
}

std::vector<double> Samples::values() const {
  return {buf_.begin(),
          buf_.begin() + static_cast<ptrdiff_t>(std::min(seen_, kCapacity))};
}

LoopSummary summarize(const char* phase, const std::vector<Slice>& slices) {
  std::vector<double> rate, p50, p90, p99;
  std::fprintf(stderr, "perfbench: %s slices (ops/s p50_us p99_us):", phase);
  for (const Slice& s : slices) {
    if (s.ops == 0 || s.wall_s <= 0) continue;
    const std::vector<double> lat = s.lat_us.values();
    rate.push_back(static_cast<double>(s.ops) / s.wall_s);
    p50.push_back(percentile(lat, 50));
    p90.push_back(percentile(lat, 90));
    p99.push_back(percentile(lat, 99));
    std::fprintf(stderr, " [%.0f %.1f %.1f]", rate.back(), p50.back(),
                 p99.back());
  }
  std::fprintf(stderr, "\n");
  return {median(rate), median(p50), median(p90), median(p99)};
}

double Layers::mean(const std::string& name) const {
  auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (const double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Layers::value(const std::string& name) const {
  auto f = fixed_.find(name);
  return f != fixed_.end() ? f->second : mean(name);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok = false;
  if (failures.size() < 20) failures.push_back("check: " + what);
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back("op: " + what);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

incflat::Json Result::json() const {
  using incflat::Json;
  Json m = Json::object();
  for (const auto& [name, vu] : metrics) {
    Json one = Json::object();
    one.set("value", vu.first);
    one.set("unit", vu.second);
    m.set(name, one);
  }
  Json r = Json::object();
  r.set("correct", checks_ok && failed == 0);
  r.set("attempted", attempted);
  r.set("failed", failed);
  r.set("metrics", m);
  return r;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string environment_refusal() {
#if !defined(__OPTIMIZE__)
  return "not an optimised build (configure with -DCMAKE_BUILD_TYPE=Release)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  // Each of these silently changes what a run measures.
  for (const char* var :
       {"INCFLAT_TRACE", "INCFLAT_STATS", "INCFLAT_FAULTS",
        "INCFLAT_FAULT_SEED", "INCFLAT_RUN_POLICY", "INCFLAT_VERIFY_EACH",
        "INCFLAT_LOCKDEP", "INCFLAT_NET_CHAOS"}) {
    if (std::getenv(var)) return std::string(var) + " is set";
  }
  if (incflat::sync::lockdep::enabled()) return "lockdep build";
  return "";
}

incflat::Json fingerprint(const Config& cfg) {
  incflat::Json f = incflat::Json::object();
  f.set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  f.set("compiler", PERFBENCH_COMPILER);
  f.set("build_type", PERFBENCH_BUILD_TYPE);
  f.set("commit", cfg.commit);
  f.set("workload", cfg.workload);
  f.set("seed", static_cast<double>(cfg.seed));
  f.set("seconds", cfg.seconds);
  f.set("trace", cfg.trace);
  f.set("serve_workers", cfg.serve_workers);
  return f;
}

void SetupTimes::time(const std::function<void()>& setup) {
  const auto t0 = Clock::now();
  setup();
  s_.push_back(seconds_since(t0));
}

double SetupTimes::median_s() const {
  std::fprintf(stderr, "perfbench: setups (ms):");
  for (const double s : s_) std::fprintf(stderr, " %.2f", s * 1e3);
  std::fprintf(stderr, "\n");
  return median(s_);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::pin(int i) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<size_t>(i) % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<Slice> timed_rounds(double seconds,
                                const std::function<int64_t(Slice&)>& round,
                                const std::function<void(int)>& before_slice) {
  std::vector<Slice> slices(kSlices);
  const double slice_s = seconds / kSlices;
  for (int i = 0; i < kSlices; ++i) {
    if (before_slice) before_slice(i);
    Slice& s = slices[static_cast<size_t>(i)];
    const auto t0 = Clock::now();
    do {
      s.ops += round(s);
    } while (seconds_since(t0) < slice_s);
    s.wall_s = seconds_since(t0);
  }
  return slices;
}

void measure_trace_overhead(const Config& cfg,
                            const std::function<LoopSummary(double)>& loop,
                            Layers& layers) {
  // Alternate short untraced and traced stretches, so that a slow period of
  // the host does not land on one side only.
  std::vector<double> plain, traced;
  for (int i = 0; i < 4; ++i) {
    incflat::trace::set_enabled(false);
    plain.push_back(loop(cfg.seconds / 16).ops_per_s);
    incflat::trace::set_enabled(true);
    traced.push_back(loop(cfg.seconds / 16).ops_per_s);
  }
  layers.set("trace.overhead_frac", median(plain) / median(traced) - 1);
}

}  // namespace perfbench
