// Plan layer vs the reference IR walker: per-candidate cost throughput.
//
// For LocVolCalib and matmul, prices the same threshold candidates over the
// training datasets twice — with plan_cost on per-dataset caches of the
// compile-once KernelPlan (the tuner's path) and with tuning_cost, the
// reference walker's cost function — checks the two agree bit for bit, and
// times back-to-back evaluations of each (no dedup, no search).  Results go
// to BENCH_plan.json; exits nonzero unless every cost matches and the plan
// is at least 5x faster.
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/flatten/flatten.h"
#include "src/plan/plan.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace incflat {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The default assignment, everything on, everything off, and a few seeded
/// random power-of-two assignments.
std::vector<ThresholdEnv> candidates(const ThresholdRegistry& reg) {
  std::vector<ThresholdEnv> out(3);
  out[1].default_threshold = 1;
  out[2].default_threshold = int64_t{1} << 62;
  Rng rng(0xbe7c4);
  for (int i = 0; i < 5; ++i) {
    ThresholdEnv env;
    for (const auto& ti : reg.all()) {
      env.values[ti.name] = int64_t{1} << rng.uniform_int(0, 24);
    }
    out.push_back(std::move(env));
  }
  return out;
}

struct Row {
  std::string name;
  size_t candidates = 0;
  double raw_plan_evals_per_s = 0;
  double raw_walk_evals_per_s = 0;
  bool costs_match = true;
};

Row measure(const std::string& name) {
  const Benchmark b = get_benchmark(name);
  const DeviceProfile dev = device_k40();
  const Compiled compiled = compile(b.program, FlattenMode::Incremental);
  const FlattenResult& inc = compiled.flat;
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});

  const KernelPlan& plan = *compiled.plan;
  std::vector<PlanDatasetCache> caches;
  for (const auto& d : train) caches.emplace_back(plan, dev, d.sizes);
  // The tuner's weighted sum, in tuning_cost's accumulation order.
  const auto plan_tuning_cost = [&](const ThresholdEnv& thr) {
    double total = 0;
    for (size_t j = 0; j < caches.size(); ++j) {
      total += train[j].weight * plan_cost(plan, caches[j], thr);
    }
    return total;
  };

  const std::vector<ThresholdEnv> cands = candidates(inc.thresholds);
  Row r;
  r.name = name;
  r.candidates = cands.size();
  for (const ThresholdEnv& thr : cands) {
    r.costs_match &=
        plan_tuning_cost(thr) == tuning_cost(dev, inc.program, train, thr);
  }

  const int plan_rounds = 250;
  auto t0 = std::chrono::steady_clock::now();
  double sink = 0;
  for (int i = 0; i < plan_rounds; ++i) {
    for (const ThresholdEnv& thr : cands) sink += plan_tuning_cost(thr);
  }
  r.raw_plan_evals_per_s =
      static_cast<double>(plan_rounds * cands.size()) / seconds_since(t0);

  const int walk_rounds = 25;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < walk_rounds; ++i) {
    for (const ThresholdEnv& thr : cands) {
      sink += tuning_cost(dev, inc.program, train, thr);
    }
  }
  r.raw_walk_evals_per_s =
      static_cast<double>(walk_rounds * cands.size()) / seconds_since(t0);
  if (sink < 0) std::cout << "";  // keep the loops observable

  return r;
}

int run() {
  Json out = Json::array();
  bool all_match = true;
  bool fast_enough = true;
  std::cout << "=== Candidate cost throughput: kernel plan vs IR walk ===\n";
  for (const std::string name : {"LocVolCalib", "matmul"}) {
    const Row r = measure(name);
    const double raw_speedup = r.raw_plan_evals_per_s / r.raw_walk_evals_per_s;
    std::cout << "\n" << r.name << " (" << r.candidates << " candidates):\n"
              << "  raw cost eval: plan "
              << fmt_double(r.raw_plan_evals_per_s, 0) << "/s, walker "
              << fmt_double(r.raw_walk_evals_per_s, 0) << "/s -> "
              << fmt_double(raw_speedup, 1) << "x\n"
              << "  costs bit-identical: " << (r.costs_match ? "yes" : "NO")
              << "\n";
    all_match &= r.costs_match;
    fast_enough &= raw_speedup >= 5.0;
    out.push(Json::object()
                 .set("benchmark", r.name)
                 .set("candidates", r.candidates)
                 .set("raw_plan_evals_per_s", r.raw_plan_evals_per_s)
                 .set("raw_walk_evals_per_s", r.raw_walk_evals_per_s)
                 .set("raw_eval_speedup", raw_speedup)
                 .set("costs_match", r.costs_match));
  }
  if (std::ofstream jf("BENCH_plan.json"); jf) {
    jf << out.str() << "\n";
    std::cout << "\nraw results written to BENCH_plan.json\n";
  }
  std::cout << (all_match ? "[PASS]" : "[FAIL]")
            << " plan costs match the IR walker\n"
            << (fast_enough ? "[PASS]" : "[FAIL]")
            << " plan evaluations at least 5x faster than IR walks\n";
  return all_match && fast_enough ? 0 : 1;
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
