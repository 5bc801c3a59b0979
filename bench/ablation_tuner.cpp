// Ablation (Sec. 4.2): the autotuner and its branching-tree deduplication.
// The paper's OpenTuner cost function short-circuits parameter assignments
// that repeat an already-measured path through the branching tree; we
// report how many of the stochastic search's trials were resolved from the
// tree cache, and how close the stochastic search gets to the exhaustive
// (branch-complete) optimum at several trial budgets.
#include "bench/harness.h"

namespace incflat {
namespace {

using bench::Checks;

int run() {
  const DeviceProfile dev = device_k40();
  Checks checks;

  std::cout << "=== Autotuner: stochastic search vs branch-complete "
               "optimum (" << dev.name << ") ===\n";
  Table tab({"benchmark", "thresholds", "budget", "trials", "evals",
             "dedup-hits", "cost vs optimum", "vs default"});
  for (const auto& name : all_benchmark_names()) {
    Benchmark b = get_benchmark(name);
    const Compiled inc = compile(b.program, FlattenMode::Incremental);
    const KernelPlan& plan = *inc.plan;
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TuningReport oracle = exhaustive_tune(dev, plan, train);
    for (int budget : {50, 400}) {
      TunerOptions opts;
      opts.max_trials = budget;
      TuningReport rep = autotune(dev, plan, train, opts);
      tab.row({name, std::to_string(plan.guards.size()),
               std::to_string(budget), std::to_string(rep.trials),
               std::to_string(rep.evaluations),
               std::to_string(rep.dedup_hits),
               fmt_double(rep.best_cost_us / oracle.best_cost_us, 3),
               fmt_double(rep.default_cost_us / rep.best_cost_us, 2) + "x"});
      if (budget == 400) {
        checks.expect(rep.best_cost_us <= 1.25 * oracle.best_cost_us,
                      name + ": stochastic tuner within 25% of the "
                      "branch-complete optimum at 400 trials");
        if (plan.guards.size() >= 2) {
          checks.expect(rep.dedup_hits > 0,
                        name + ": branching-tree dedup resolves repeated "
                        "assignments without re-measurement");
        }
      }
    }
  }
  tab.print(std::cout);
  return checks.print(std::cout);
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
