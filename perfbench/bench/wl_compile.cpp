// compile: cold exec::compile of every suite program under every mode, in
// seeded order.  Loads the passes and plan-build; the tuner and the daemon
// do no work here.
#include <algorithm>

#include "bench/workloads.h"
#include "src/pass/pass.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace incflat;

namespace {

struct Item {
  const Benchmark* b = nullptr;
  FlattenMode mode = FlattenMode::Incremental;
  // Shape of the reference compile, compared on every timed compile.
  size_t kernels = 0, guards = 0, nodes = 0, thresholds = 0;
};

bool same_shape(const Item& it, const Compiled& c) {
  return c.plan && !c.plan->legacy_fallback &&
         c.plan->kernels.size() == it.kernels &&
         c.plan->guards.size() == it.guards &&
         c.plan->nodes.size() == it.nodes &&
         c.flat.thresholds.all().size() == it.thresholds;
}

void shuffle(std::vector<size_t>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<size_t>(rng.uniform_int(
                            0, static_cast<int64_t>(i) - 1))]);
}

}  // namespace

WorkloadOutput run_compile(const Config& cfg, Result& r) {
  WorkloadOutput out;
  Suite s;
  std::vector<Item> items;
  auto setup = [&] {
    s = load_suite();
    items.clear();
    for (const Benchmark& b : s.benches) {
      for (const FlattenMode m : s.modes) {
        const Compiled c = compile(b.program, m);
        items.push_back({&b, m, c.plan->kernels.size(), c.plan->guards.size(),
                         c.plan->nodes.size(), c.flat.thresholds.all().size()});
      }
    }
  };
  SetupTimes setups;
  setups.time(setup);

  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(cfg.seed);

  // The loop is single-threaded: it rotates over the CPUs slice by slice.
  CpuRotation cpus;
  auto loop = [&](double seconds, bool time_setups) {
    auto round = [&](Slice& sl) {
      shuffle(order, rng);
      for (const size_t ix : order) {
        const Item& it = items[ix];
        const auto t0 = Clock::now();
        const Compiled c = compile(it.b->program, it.mode);
        sl.lat_us.add(us_between(t0, Clock::now()));
        r.op(same_shape(it, c), it.b->name + " " + mode_name(it.mode) +
                                    ": compiled plan changed shape");
      }
      return static_cast<int64_t>(order.size());
    };
    return summarize("compile", timed_rounds(seconds, round, [&](int i) {
      cpus.pin(i);
      if (time_setups) setups.time(setup);
    }));
  };

  if (!cfg.trace) {
    out.loop = loop(cfg.seconds, /*time_setups=*/true);
    out.setup_s = setups.median_s();
  } else {
    measure_trace_overhead(
        cfg, [&](double sec) { return loop(sec, /*time_setups=*/false); },
        out.layers);
    Layers& L = out.layers;
    int64_t kernels = 0, guards = 0, nodes = 0, thresholds = 0;
    for (const Item& it : items) {
      kernels += static_cast<int64_t>(it.kernels);
      guards += static_cast<int64_t>(it.guards);
      nodes += static_cast<int64_t>(it.nodes);
      thresholds += static_cast<int64_t>(it.thresholds);
    }
    L.set("plan.kernels", static_cast<double>(kernels));
    L.set("plan.guards", static_cast<double>(guards));
    L.set("plan.nodes", static_cast<double>(nodes));
    L.set("flatten.thresholds", static_cast<double>(thresholds));

    // Layer probe: every compile twice, once through exec::compile and once
    // pass by pass through make_pass(..)->run, then a dataset-cache sweep.
    const auto t0 = Clock::now();
    for (int round = 0; seconds_since(t0) < cfg.seconds / 2; ++round) {
      trace::flush_spans();  // the Chrome trace keeps the last round
      cpus.pin(round);
      shuffle(order, rng);
      for (const size_t ix : order) {
        const Item& it = items[ix];
        Compiled c;
        L.add("compile." + it.b->name + "." + mode_name(it.mode),
              timed_us("exec.compile",
                       [&] { c = compile(it.b->program, it.mode); }));
        r.op(same_shape(it, c), it.b->name + ": exec::compile shape");

        PipelineState st;
        st.program = it.b->program;
        st.mode = it.mode;
        for (const char* name : {"fusion", "normalize", mode_name(it.mode),
                                 "prune-segbinds", "tiling", "plan-build"}) {
          const std::unique_ptr<Pass> p = make_pass(name);
          const double us = timed_us("pass.run", [&] { p->run(st); });
          L.add(std::string("pass.") + name + ".us", us);
          if (std::string(p->name()) == "plan-build")
            L.add("plan.build.us", us);
        }
        r.op(st.plan && st.plan->kernels.size() == it.kernels,
             it.b->name + ": pass-by-pass pipeline differs from compile");

        for (const Device& d : s.devices) {
          for (const BenchDataset& ds : it.b->datasets) {
            L.add("plan.dataset_cache.us",
                  timed_us("plan.dataset_cache", [&] {
                    PlanDatasetCache cache(*c.plan, d.profile, ds.sizes);
                  }));
          }
        }
      }
    }
    for (const Benchmark& b : s.benches) {
      double sum = 0;
      for (const FlattenMode m : s.modes)
        sum += L.mean("compile." + b.name + "." + mode_name(m));
      L.set("compile." + b.name + ".us", sum);
    }
  }

  out.sim_geomean_us = eval_geomean(s, compute_estimates(s));
  return out;
}

}  // namespace perfbench
