// Shared plumbing of the repository benchmark: clocks and order statistics,
// slice-based loop summaries, layer timers that pair a trace::Span with a
// steady-clock sample, the run result, and the environment guard.
//
// Every end-to-end figure is a median over fixed-length slices of one run,
// so a short burst of interference on a shared machine moves at most one
// slice.  Layer timings are taken only in traced runs (Config::trace), from
// this package's own wrappers around the library's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Geometric mean of strictly positive values.
double geomean(const std::vector<double>& v);

/// A uniform reservoir of at most kCapacity samples, in memory allocated
/// and touched up front: the benchmark's own bookkeeping then adds the same
/// resident memory to every run, whatever the throughput.
class Samples {
 public:
  static constexpr size_t kCapacity = size_t{1} << 15;
  Samples() : buf_(kCapacity, 0.0) {}
  void add(double v);
  void clear() { seen_ = 0; }
  /// The retained samples.
  std::vector<double> values() const;

 private:
  std::vector<double> buf_;
  size_t seen_ = 0;
  incflat::Rng rng_;
};

/// One fixed-length slice of a timed loop.
struct Slice {
  double wall_s = 0;  // from the slice's start to its last completion
  int64_t ops = 0;
  Samples lat_us;     // per-operation latencies
};

/// Medians over slices of throughput and latency percentiles.
struct LoopSummary {
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};
/// Also logs every slice's throughput, p50 and p99 to stderr under
/// `phase`, so that interference during a run can be seen.
LoopSummary summarize(const char* phase, const std::vector<Slice>& slices);

/// Number of slices a timed phase is cut into.
constexpr int kSlices = 20;

/// How one invocation is configured (perfbench/run.py passes every field).
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int serve_workers = 1;       // daemon scheduler width
  double hot_rate = 0;         // open-loop req/s, serve-hot
  size_t churn_cache_bytes = size_t{1} << 20;  // the churn probe's cache
  std::string golden_dir;      // perfbench/golden
  std::string run_dir;         // scratch space inside the checkout
  std::string commit;          // source fingerprint, recorded with results
};

/// Named per-layer samples, filled only in traced runs.
class Layers {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  void set(const std::string& name, double v) { fixed_[name] = v; }
  /// Mean of the samples of `name`; 0 when none were taken.
  double mean(const std::string& name) const;
  /// The value set for `name`, else the mean of its samples; 0 for a layer
  /// the workload does not exercise.
  double value(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> fixed_;
};

/// Time `fn()` under a trace span (a string literal), returning
/// microseconds.
template <class Fn>
double timed_us(const char* span, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    incflat::trace::Span s(span, "perfbench");
    fn();
  }
  return us_between(t0, Clock::now());
}

/// The run's verdict and figures, printed as the last stdout line.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> failures;  // first few, for stderr
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// Record one output check; a failing one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Record one timed operation's outcome.
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  incflat::Json json() const;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Why a timed run must be refused (build flavour or an environment
/// variable that changes what is measured); empty when it may run.
std::string environment_refusal();

/// nproc, compiler, build type and source fingerprint.
incflat::Json fingerprint(const Config& cfg);

/// The set-up timings of one run.  A workload sets up once before its timed
/// phase and, in untimed gaps, once more before each slice of it: setup_s,
/// their median, then samples the host across the whole run as the slices
/// do, instead of the first tens of milliseconds of the process.
class SetupTimes {
 public:
  /// Run `setup` and record its wall time.
  void time(const std::function<void()>& setup);
  /// Median wall time in seconds; logs every sample to stderr.
  double median_s() const;

 private:
  std::vector<double> s_;
};

/// Pins the calling thread to one of its allowed CPUs at a time and
/// restores its affinity when destroyed.  On a shared host the CPUs differ
/// in speed by up to half, and a single-threaded loop stays on whichever
/// one it started on, so that placement alone would decide a run's figure;
/// pinning slice i to CPU i (mod the count) makes every run sample them all.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin(int i);

 private:
  std::vector<int> cpus_;
};

/// Run `round` repeatedly for `seconds`, cut into kSlices slices; each call
/// appends its op latencies to the slice it is given and returns the ops
/// it completed.  Slices end on round boundaries.  `before_slice(i)`, when
/// given, runs untimed before slice i.
std::vector<Slice> timed_rounds(
    double seconds, const std::function<int64_t(Slice&)>& round,
    const std::function<void(int)>& before_slice = {});

/// Traced runs: the workload's loop untraced and traced, alternating, over
/// half of the run; records trace.overhead_frac and leaves tracing on.
void measure_trace_overhead(const Config& cfg,
                            const std::function<LoopSummary(double)>& loop,
                            Layers& layers);

}  // namespace perfbench
