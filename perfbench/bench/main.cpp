// perfbench — the repository benchmark driver.
//
//   perfbench --workload compile|tune|serve-hot --seed N --seconds S
//             --trace 0|1 --golden-dir DIR --run-dir DIR
//             --serve-workers N --hot-rate R [--commit ID]
//   perfbench --write-goldens --golden-dir DIR
//
// Prints a fingerprint line, then as the last stdout line one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics when
// --trace 0, the per-layer metrics when --trace 1.  A traced run also
// writes a Chrome trace of its layer probes into the run directory.
// perfbench/run.py builds this binary and supplies every flag.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench/common.h"
#include "bench/suite.h"
#include "bench/workloads.h"
#include "src/support/trace.h"

using namespace perfbench;
using incflat::Json;

namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m;
  for (const char* p : {"fusion", "normalize", "moderate", "incremental",
                        "full", "prune-segbinds", "tiling", "plan-build"})
    m.push_back({std::string("pass.") + p + ".us", "us"});
  const std::vector<std::string> names = incflat::all_benchmark_names();
  for (const std::string& b : names)
    m.push_back({"compile." + b + ".us", "us"});
  for (const char* c : {"plan.kernels", "plan.guards", "plan.nodes",
                        "flatten.thresholds"})
    m.push_back({c, "count"});
  m.push_back({"plan.build.us", "us"});
  m.push_back({"plan.dataset_cache.us", "us"});
  m.push_back({"plan.cost.ns", "ns"});
  m.push_back({"plan.signature.ns", "ns"});
  m.push_back({"autotune.pooled.us", "us"});
  m.push_back({"autotune.serial.us", "us"});
  m.push_back({"autotune.trials", "count"});
  m.push_back({"autotune.evaluations", "count"});
  m.push_back({"autotune.dedup_frac", "ratio"});
  m.push_back({"exhaustive.evaluations", "count"});
  m.push_back({"autotune.other.us", "us"});
  for (const std::string& b : names)
    m.push_back({"exhaustive." + b + ".us", "us"});
  for (const char* n : {"exec.tiered_run.ns", "exec.run_with_faults.ns",
                        "plan.estimate.ns", "plan.launch_schedule.ns"})
    m.push_back({n, "ns"});
  for (const char* n : {"serve.rtt.us", "serve.core.us", "serve.net.us",
                        "serve.protocol.parse.us",
                        "serve.protocol.serialize.us"})
    m.push_back({n, "us"});

  m.push_back({"scheduler.max_queue_depth", "count"});
  m.push_back({"serve.batched_frac", "ratio"});
  m.push_back({"serve.spec_frac", "ratio"});
  m.push_back({"serve.open_p99_us", "us"});
  m.push_back({"gen.late_p99_us", "us"});
  m.push_back({"plan_cache.hit_frac", "ratio"});
  m.push_back({"plan_cache.evictions", "count"});
  m.push_back({"churn.ops_per_s", "1/s"});
  m.push_back({"churn.rtt.us", "us"});
  m.push_back({"churn.spec_frac", "ratio"});
  m.push_back({"trace.overhead_frac", "ratio"});
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace "
               "0|1 --golden-dir DIR --run-dir DIR --serve-workers N "
               "--hot-rate R [--commit ID]\n"
               "       perfbench --write-goldens --golden-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool write_goldens = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = val();
    else if (a == "--seed")
      cfg.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(val().c_str());
    else if (a == "--trace") cfg.trace = val() != "0";
    else if (a == "--golden-dir") cfg.golden_dir = val();
    else if (a == "--run-dir") cfg.run_dir = val();
    else if (a == "--serve-workers")
      cfg.serve_workers = std::atoi(val().c_str());
    else if (a == "--hot-rate") cfg.hot_rate = std::atof(val().c_str());
    else if (a == "--commit") cfg.commit = val();
    else if (a == "--write-goldens") write_goldens = true;
    else return usage();
  }

  if (cfg.golden_dir.empty()) return usage();
  Result r;
  if (write_goldens) {
    check_goldens(load_suite(), cfg, r, /*write=*/true);
    std::fprintf(stderr, "perfbench: wrote goldens to %s\n",
                 cfg.golden_dir.c_str());
    return r.checks_ok ? 0 : 1;
  }

  if (cfg.run_dir.empty() || cfg.seconds <= 0) return usage();
  if (const std::string why = environment_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing a timed run: %s\n", why.c_str());
    return 3;
  }
  std::cout << "fingerprint " << fingerprint(cfg).str(-1) << std::endl;

  WorkloadOutput out;
  try {
    if (cfg.workload == "compile") out = run_compile(cfg, r);
    else if (cfg.workload == "tune") out = run_tune(cfg, r);
    else if (cfg.workload == "serve-hot") out = run_serve(cfg, r);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  const double rss_mb = peak_rss_mb();

  if (cfg.trace) {
    const std::string path = cfg.run_dir + "/trace-" + cfg.workload + ".json";
    incflat::trace::write_chrome(path);
    incflat::trace::set_enabled(false);
    std::fprintf(stderr, "perfbench: chrome trace %s\n", path.c_str());
  }

  const auto t0 = Clock::now();
  try {
    check_goldens(load_suite(), cfg, r);
  } catch (const std::exception& e) {
    r.check(false, std::string("golden check threw: ") + e.what());
  }
  std::fprintf(stderr, "perfbench: golden checks took %.2f s\n",
               seconds_since(t0));

  if (!cfg.trace) {
    r.metric("setup_s", out.setup_s, "s");
    r.metric("peak_rss_mb", rss_mb, "MiB");
    r.metric("ops_per_s", out.loop.ops_per_s, "1/s");
    r.metric("op_p50_us", out.loop.p50_us, "us");
    r.metric("op_p90_us", out.loop.p90_us, "us");
    r.metric("sim_geomean_us", out.sim_geomean_us, "sim_us");
  } else {
    for (const MetricDef& d : per_layer_metrics())
      r.metric(d.name, out.layers.value(d.name), d.unit);
  }
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());
  std::cout << r.json().str(-1) << std::endl;
  return 0;
}
