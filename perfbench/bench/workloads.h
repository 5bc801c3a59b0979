// The three workloads.  Each builds its inputs from Config::seed, sets up,
// then measures for Config::seconds; untraced runs set up again before each
// slice of the timed phase (SetupTimes).
//
// Untraced runs measure the end-to-end loop only.  Traced runs spend half
// of the time on the same loop, alternately untraced and traced (their
// throughput ratio is the tracing overhead), then probe each layer the
// workload exercises under trace spans for the rest.
#pragma once

#include "bench/common.h"
#include "bench/suite.h"

namespace perfbench {

struct WorkloadOutput {
  double setup_s = 0;
  LoopSummary loop;
  double sim_geomean_us = 0;
  Layers layers;  // traced runs only
};

WorkloadOutput run_compile(const Config& cfg, Result& r);
WorkloadOutput run_tune(const Config& cfg, Result& r);
WorkloadOutput run_serve(const Config& cfg, Result& r);

}  // namespace perfbench
