// The benchmark's view of the paper's suite, and its golden outputs.
//
// Goldens live in perfbench/golden/ and are compared bit-for-bit (doubles
// round-trip exactly through Json) on every run:
//   estimates.json  estimate and kernel launches, every benchmark x mode x
//                   device x dataset (evaluation and tuning), at default
//                   thresholds;
//   tuning.json     stochastic and exhaustive best thresholds and costs,
//                   every benchmark x device, incremental mode, default
//                   tuner options.
// `perfbench --write-goldens` regenerates both from the current sources.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"

namespace perfbench {

struct Device {
  std::string name;  // the daemon's device name
  incflat::DeviceProfile profile;
};

struct Suite {
  std::vector<incflat::Benchmark> benches;  // all_benchmark_names() order
  std::vector<Device> devices;              // k40, vega64
  std::vector<incflat::FlattenMode> modes;  // moderate, incremental, full
};

Suite load_suite();

/// Training datasets of a benchmark, as the tuner takes them.
std::vector<incflat::TuningDataset> training_set(const incflat::Benchmark& b);

/// "bench|mode|device|dataset", the estimate golden key.
std::string estimate_key(const std::string& bench, const std::string& mode,
                         const std::string& device,
                         const std::string& dataset);

struct Estimate {
  double estimate_us = 0;
  int64_t launches = 0;
};

/// Fresh compiles of every benchmark x mode, priced on every device x
/// dataset at default thresholds.
std::map<std::string, Estimate> compute_estimates(const Suite& s);

/// Geometric mean of the estimates over every benchmark x mode x device x
/// evaluation dataset.
double eval_geomean(const Suite& s, const std::map<std::string, Estimate>& e);

/// Compare against (or, with `write`, regenerate) the golden files, and
/// run the semantic checks: exhaustive best <= stochastic best, and the
/// flattened program's values equal the source's (and the plain-C++
/// golden's) on test_sizes under seeded random thresholds.
void check_goldens(const Suite& s, const Config& cfg, Result& r,
                   bool write = false);

/// Golden estimate lookup (the serve workloads check their expected answers
/// against it).
const std::map<std::string, Estimate>& golden_estimates(const Config& cfg);

/// Golden stochastic thresholds and best cost, keyed "bench|device".
struct TunedGolden {
  std::map<std::string, int64_t> thresholds;
  double best_cost_us = 0;
};
const std::map<std::string, TunedGolden>& golden_tuning(const Config& cfg);

}  // namespace perfbench
