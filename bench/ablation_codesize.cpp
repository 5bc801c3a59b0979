// Ablation (Sec. 5.1): compilation-cost overhead of incremental flattening.
// The paper reports "on average, IF takes 4x longer to compile and
// generates 3x larger binaries than MF".  Here we measure compile time of
// the flattening pipeline and code size as AST nodes / emitted kernels.
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

  return checks.print(std::cout);
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
