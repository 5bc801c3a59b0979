// tune: stochastic autotune of every incremental program on both devices,
// each on its training datasets, with default tuner options, and the tuned
// thresholds priced on the evaluation datasets.  The figure-regeneration
// path: programs are compiled once in setup and no pass runs while timed.
#include <algorithm>

#include "bench/workloads.h"
#include "src/plan/plan.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace incflat;

namespace {

struct Item {
  const Benchmark* b = nullptr;
  const Device* d = nullptr;
  std::shared_ptr<const Compiled> c;
  std::vector<TuningDataset> train;
  TunedGolden golden;
  std::vector<double> priced;  // the last tune's thresholds, evaluated
};

bool matches(const Item& it, const TuningReport& rep) {
  return rep.best.values == it.golden.thresholds &&
         rep.best_cost_us == it.golden.best_cost_us;
}

/// The estimate on each evaluation dataset under `thr`.
std::vector<double> price(const Item& it, const ThresholdEnv& thr) {
  std::vector<double> v;
  for (const BenchDataset& ds : it.b->datasets)
    v.push_back(
        plan_estimate_run(*it.c->plan, it.d->profile, ds.sizes, thr).time_us);
  return v;
}

/// One layer probe of an item: the tuner pooled and serial, its plan build,
/// dataset caches and candidate replays, and the exhaustive tuner.
void probe(const Item& it, Rng& rng, Layers& L, Result& r) {
  TuningReport pooled, serial;
  const double pooled_us = timed_us("autotune.pooled", [&] {
    pooled = autotune(it.d->profile, it.c->flat.program, it.c->flat.thresholds,
                      it.train);
  });
  TunerOptions one;
  one.workers = 1;
  const double serial_us = timed_us("autotune.serial", [&] {
    serial = autotune(it.d->profile, it.c->flat.program, it.c->flat.thresholds,
                      it.train, one);
  });
  r.op(matches(it, pooled) && matches(it, serial),
       it.b->name + "|" + it.d->name + ": tuned thresholds differ");
  L.add("autotune.pooled.us", pooled_us);
  L.add("autotune.serial.us", serial_us);

  KernelPlan plan;
  const double build_us = timed_us(
      "plan.build", [&] { plan = build_kernel_plan(it.c->flat.program); });
  L.add("plan.build.us", build_us);
  std::vector<std::unique_ptr<PlanDatasetCache>> caches;
  double caches_us = 0;
  for (const TuningDataset& t : it.train) {
    const double us = timed_us("plan.dataset_cache", [&] {
      caches.push_back(
          std::make_unique<PlanDatasetCache>(plan, it.d->profile, t.sizes));
    });
    L.add("plan.dataset_cache.us", us);
    caches_us += us;
  }

  // Seeded candidate replays: the tuner's per-trial signature and
  // per-evaluation cost, over every training dataset.
  constexpr int kCandidates = 32;
  std::vector<ThresholdEnv> cands(kCandidates);
  for (ThresholdEnv& env : cands)
    for (const auto& ti : it.c->flat.thresholds.all())
      env.values[ti.name] = int64_t{1} << rng.uniform_int(0, 31);
  double sink = 0;
  const double cost_us = timed_us("plan.cost", [&] {
    for (const ThresholdEnv& env : cands)
      for (const auto& c : caches) sink += plan_cost(plan, *c, env);
  });
  size_t bits = 0;
  const double sig_us = timed_us("plan.signature", [&] {
    for (const ThresholdEnv& env : cands)
      for (const auto& c : caches)
        bits += plan_signature(plan, *c, env).bits.size();
  });
  const double calls = static_cast<double>(kCandidates * caches.size());
  r.op(sink > 0 && bits > 0, it.b->name + ": candidate replay priced nothing");
  L.add("plan.cost.ns", cost_us * 1000 / calls);
  L.add("plan.signature.ns", sig_us * 1000 / calls);
  const double per_dataset = static_cast<double>(caches.size());
  L.add("autotune.other.us",
        pooled_us - build_us - caches_us -
            pooled.evaluations * per_dataset * cost_us / calls -
            pooled.trials * per_dataset * sig_us / calls);

  TuningReport ex;
  L.add("exhaustive." + it.b->name + ".us",
        timed_us("exhaustive_tune", [&] {
          ex = exhaustive_tune(it.d->profile, it.c->flat.program,
                               it.c->flat.thresholds, it.train);
        }));
  r.op(ex.best_cost_us <= pooled.best_cost_us,
       it.b->name + "|" + it.d->name + ": exhaustive above stochastic");
  L.add("autotune.trials", pooled.trials);
  L.add("autotune.evaluations", pooled.evaluations);
  L.add("autotune.dedup_hits", pooled.dedup_hits);
  L.add("exhaustive.evaluations", ex.evaluations);
}

}  // namespace

WorkloadOutput run_tune(const Config& cfg, Result& r) {
  WorkloadOutput out;
  Suite s;
  std::vector<Item> items;
  auto setup = [&] {
    s = load_suite();
    items.clear();
    const auto& golden = golden_tuning(cfg);
    for (const Benchmark& b : s.benches) {
      auto c = std::make_shared<const Compiled>(
          compile(b.program, FlattenMode::Incremental));
      for (const Device& d : s.devices) {
        Item it{&b, &d, c, training_set(b), golden.at(b.name + "|" + d.name),
                {}};
        // Warm-up: the first tune of each item, checked like the rest.
        const TuningReport rep = autotune(d.profile, c->flat.program,
                                          c->flat.thresholds, it.train);
        r.check(matches(it, rep),
                b.name + "|" + d.name + ": setup tune differs from golden");
        it.priced = price(it, rep.best);
        items.push_back(std::move(it));
      }
    }
  };
  SetupTimes setups;
  setups.time(setup);

  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(cfg.seed);
  auto shuffle = [&] {
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<size_t>(rng.uniform_int(
                                  0, static_cast<int64_t>(i) - 1))]);
  };

  auto loop = [&](double seconds, bool time_setups) {
    auto round = [&](Slice& sl) {
      shuffle();
      for (const size_t ix : order) {
        Item& it = items[ix];
        const auto t0 = Clock::now();
        const TuningReport rep = autotune(it.d->profile, it.c->flat.program,
                                          it.c->flat.thresholds, it.train);
        sl.lat_us.add(us_between(t0, Clock::now()));
        it.priced = price(it, rep.best);
        r.op(matches(it, rep) && !it.priced.empty(),
             it.b->name + "|" + it.d->name + ": tuned thresholds differ");
      }
      return static_cast<int64_t>(order.size());
    };
    return summarize("tune", timed_rounds(seconds, round, [&](int) {
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
    const auto t0 = Clock::now();
    int rounds = 0;
    while (rounds == 0 || seconds_since(t0) < cfg.seconds / 2) {
      trace::flush_spans();  // the Chrome trace keeps the last round
      shuffle();
      for (const size_t ix : order) probe(items[ix], rng, L, r);
      ++rounds;
    }
    // Suite sums of the exact tuner counts (equal in every round).
    L.set("autotune.dedup_frac",
          L.mean("autotune.dedup_hits") / L.mean("autotune.trials"));
    const double n = static_cast<double>(items.size());
    for (const char* k : {"autotune.trials", "autotune.evaluations",
                          "exhaustive.evaluations"})
      L.set(k, L.mean(k) * n);
  }

  // The simulated speed of the code at the thresholds this run's tuner
  // chose (checked against the golden thresholds on every tune).
  std::vector<double> sims;
  for (const Item& it : items)
    sims.insert(sims.end(), it.priced.begin(), it.priced.end());
  out.sim_geomean_us = geomean(sims);
  return out;
}

}  // namespace perfbench
