// Ablation (Sec. 5.1): compilation-cost overhead of incremental flattening.
// The paper reports "on average, IF takes 4x longer to compile and
// generates 3x larger binaries than MF".  Here we measure compile time of
// the flattening pipeline and code size as AST nodes / emitted kernels.
//
// The second table measures what the static size analysis claws back:
// compiling with simplify-guards (IFs) folds guards that are provably
// constant under the benchmarks' declared dataset bounds, deleting dead
// versions and their thresholds — with *identical* cost estimates and
// tuned results, which the shape checks verify.
#include <chrono>

#include "bench/harness.h"
#include "src/ir/traverse.h"

namespace incflat {
namespace {

using bench::Checks;

double time_flatten(const Program& p, FlattenMode mode, int reps) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (int i = 0; i < reps; ++i) {
    FlattenResult r = flatten(p, mode);
    (void)r;
  }
  return std::chrono::duration<double, std::micro>(clock::now() - t0)
             .count() /
         reps;
}

int run() {
  Checks checks;
  std::cout << "=== Code-size and compile-time expansion of IF vs MF ===\n";
  Table tab({"benchmark", "MF nodes", "IF nodes", "size x", "MF kernels",
             "IF kernels", "thresholds", "MF comp(us)", "IF comp(us)",
             "time x"});
  double total_size = 0, total_time = 0;
  int count = 0;
  std::vector<std::string> names = all_benchmark_names();
  for (const auto& name : names) {
    Benchmark b = get_benchmark(name);
    FlattenResult mf = flatten(b.program, FlattenMode::Moderate);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const int64_t mn = count_nodes(mf.program.body);
    const int64_t in = count_nodes(inc.program.body);
    const double tm = time_flatten(b.program, FlattenMode::Moderate, 20);
    const double ti = time_flatten(b.program, FlattenMode::Incremental, 20);
    tab.row({name, std::to_string(mn), std::to_string(in),
             fmt_double(static_cast<double>(in) / mn, 2),
             std::to_string(count_segops(mf.program.body)),
             std::to_string(count_segops(inc.program.body)),
             std::to_string(inc.thresholds.size()), fmt_double(tm, 0),
             fmt_double(ti, 0), fmt_double(ti / tm, 2)});
    total_size += static_cast<double>(in) / mn;
    total_time += ti / tm;
    ++count;
  }
  tab.print(std::cout);
  const double avg_size = total_size / count;
  const double avg_time = total_time / count;
  std::cout << "\naverage code-size expansion: " << fmt_double(avg_size, 2)
            << "x; average compile-time expansion: "
            << fmt_double(avg_time, 2) << "x\n";
  checks.expect(avg_size > 1.5 && avg_size < 10.0,
                "code-size expansion is significant but manageable "
                "(paper: ~3x binaries, up to 4x)");
  checks.expect(avg_time > 1.0,
                "incremental flattening costs more compile time than "
                "moderate (paper: ~4x)");

  // ---- simplify-guards: statically-pruned incremental flattening -------
  const DeviceProfile dev = device_k40();
  std::cout << "\n=== IF vs IF+simplify-guards (IFs) on " << dev.name
            << " ===\n";
  Table stab({"benchmark", "IF kernels", "IFs kernels", "IF thr", "IFs thr",
              "IF nodes", "IFs nodes", "est match", "tuned match"});
  int pruned_programs = 0;
  bool all_est_match = true, all_tuned_match = true;
  CompileOptions sopts;
  sopts.simplify = true;
  sopts.limits = analysis::limits_for(dev);
  for (const auto& name : names) {
    Benchmark b = get_benchmark(name);
    const Compiled plain = compile(b.program, FlattenMode::Incremental);
    const Compiled simp = compile(b.program, FlattenMode::Incremental, sopts);
    const int64_t pk = count_segops(plain.flat.program.body);
    const int64_t sk = count_segops(simp.flat.program.body);
    const size_t pt = plain.flat.thresholds.size();
    const size_t st = simp.flat.thresholds.size();
    if (sk < pk && st < pt) ++pruned_programs;

    // Cost-estimate identity on every evaluation dataset, for the default
    // and a sweep of uniform threshold assignments.
    bool est_match = true;
    std::vector<ThresholdEnv> sweeps(1);
    for (const int64_t v : {int64_t{1}, int64_t{256}, int64_t{1} << 22}) {
      ThresholdEnv te;
      for (const auto& ti : plain.flat.thresholds.all()) {
        te.values[ti.name] = v;
      }
      sweeps.push_back(std::move(te));
    }
    for (const auto& ds : b.datasets) {
      for (const auto& te : sweeps) {
        const RunEstimate a = bench::sim(*plain.plan, dev, ds.sizes, te);
        const RunEstimate s = bench::sim(*simp.plan, dev, ds.sizes, te);
        if (a.time_us != s.time_us || a.kernels.size() != s.kernels.size()) {
          est_match = false;
        }
      }
    }
    all_est_match = all_est_match && est_match;

    // Tuned-result identity: the exhaustive tuner must land on the same
    // best cost over the same training data.
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    const TuningReport ra = exhaustive_tune(dev, *plain.plan, train);
    const TuningReport rs = exhaustive_tune(dev, *simp.plan, train);
    const bool tuned_match = ra.best_cost_us == rs.best_cost_us;
    all_tuned_match = all_tuned_match && tuned_match;

    stab.row({name, std::to_string(pk), std::to_string(sk),
              std::to_string(pt), std::to_string(st),
              std::to_string(count_nodes(plain.flat.program.body)),
              std::to_string(count_nodes(simp.flat.program.body)),
              est_match ? "yes" : "NO", tuned_match ? "yes" : "NO"});
  }
  stab.print(std::cout);
  std::cout << "\nprograms with strictly fewer versions AND thresholds: "
            << pruned_programs << "/" << count << "\n";
  checks.expect(pruned_programs >= 2,
                "simplify-guards statically deletes versions and "
                "thresholds on at least two benchmarks");
  checks.expect(all_est_match,
                "pruned plans price identically to the full plans on "
                "every dataset and threshold assignment");
  checks.expect(all_tuned_match,
                "exhaustive tuning reaches the same best cost with the "
                "pruned search space");
  return checks.print(std::cout);
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
