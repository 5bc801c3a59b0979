// The paper's motivating example (Sec. 2.2): matrix multiplication across
// shapes of constant total work.  Shows the generated code versions and how
// the tuned thresholds pick version (1) — the fully flattened segred — for
// small n and version (2) — outer segmap with a sequentialised, block-tiled
// redomap — for large n.
#include <iostream>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/ir/print.h"
#include "src/support/str.h"
#include "src/support/table.h"

using namespace incflat;

int main() {
  Benchmark b = get_benchmark("matmul");
  Compiled c = compile(b.program, FlattenMode::Incremental);
  std::cout << "matmul flattened into " << c.flat.thresholds.size()
            << " guarded versions:\n"
            << c.flat.thresholds.tree_str() << "\n";

  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train;
  for (int n = 0; n <= 10; ++n) {
    const int m = 20 - 2 * n;
    if (m < 0) break;
    train.push_back({"n" + std::to_string(n),
                     {{"n", int64_t{1} << n},
                      {"m", int64_t{1} << m},
                      {"k", int64_t{1} << n}},
                     1.0});
  }
  TuningReport rep = exhaustive_tune(dev, *c.plan, train);
  std::cout << "tuned thresholds (trained on the k=20 sweep):\n";
  for (const auto& [name, v] : rep.best.values) {
    std::cout << "  " << name << " = " << v << "\n";
  }

  Table t({"n", "tuned time", "version used"});
  for (const auto& d : train) {
    RunEstimate est = simulate(dev, c, d.sizes, rep.best);
    std::string version = "outer-only";
    for (const auto& [g, taken] : est.guards) {
      if (taken && g.find("intra") != std::string::npos) {
        version = "intra-group";
      }
    }
    bool any_top = false;
    for (const auto& [g, taken] : est.guards) {
      any_top |= taken;
    }
    if (!any_top) version = "fully flattened (segred)";
    for (const auto& k : est.kernels) {
      if (k.what.find("tiled") != std::string::npos) {
        version = "segmap + tiled sequential redomap";
      }
    }
    t.row({d.name, fmt_us(est.time_us), version});
  }
  t.print(std::cout);
  std::cout << "\nAs in Fig. 2: the dataset decides the version — one "
               "compiled program covers the whole sweep.\n";
  return 0;
}
