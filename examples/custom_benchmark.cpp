// Bringing your own workload: writes a new nested-parallel application
// (a small k-means-style assignment step: map over points of a redomap
// over centroids, under an outer map over batches), runs the full pipeline
// — fusion, flattening, tuning on two GPUs — and reports, per device, which
// code version each dataset class ends up on.  This mirrors the artifact
// appendix's "Adding a new Futhark implementation of a benchmark" flow.
#include <iostream>

#include "src/autotune/autotune.h"
#include "src/exec/exec.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/typecheck.h"
#include "src/support/str.h"
#include "src/support/table.h"

using namespace incflat;
using namespace incflat::ib;

namespace {

Program assignment_step() {
  // For every batch, for every point, the distance to the nearest centroid:
  //   map (\pts -> map (\p -> redomap min (\c -> (p-c)^2) inf cs) pts) batches
  Program prog;
  prog.name = "kmeans_assign";
  prog.inputs = {
      {"batches",
       Type::array(Scalar::F32, {Dim::v("nb"), Dim::v("pts")})},
      {"cs", Type::array(Scalar::F32, {Dim::v("ks")})},
  };
  Lambda dist = lam({p("c", Type::scalar(Scalar::F32))},
                    mul(sub(var("pt"), var("c")), sub(var("pt"), var("c"))));
  Lambda per_point =
      lam({p("pt", Type::scalar(Scalar::F32))},
          redomap(binlam("min", Scalar::F32), dist, {cf32(1e30)},
                  {var("cs")}));
  Lambda per_batch = lam({p("ptsv", Type())}, map1(per_point, var("ptsv")));
  prog.body = map1(per_batch, var("batches"));
  return typecheck_program(std::move(prog));
}

}  // namespace

int main() {
  Program prog = assignment_step();
  Compiled c = compile(prog, FlattenMode::Incremental);
  std::cout << "generated " << c.flat.thresholds.size()
            << " thresholds for kmeans_assign:\n"
            << c.flat.thresholds.tree_str() << "\n";

  // Two dataset classes: many small batches vs one huge batch with a large
  // centroid set.
  std::vector<TuningDataset> train = {
      {"many-batches", {{"nb", 2048}, {"pts", 256}, {"ks", 8}}, 1.0},
      {"one-batch", {{"nb", 1}, {"pts", 2048}, {"ks", 4096}}, 1.0},
  };

  Table t({"device", "dataset", "default", "tuned", "speedup"});
  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    TuningReport rep = exhaustive_tune(dev, *c.plan, train);
    for (const auto& d : train) {
      const double t0 = simulate(dev, c, d.sizes, {}).time_us;
      const double t1 = simulate(dev, c, d.sizes, rep.best).time_us;
      t.row({dev.name, d.name, fmt_us(t0), fmt_us(t1),
             fmt_double(t0 / t1, 2) + "x"});
    }
  }
  t.print(std::cout);
  std::cout << "\nOne binary; the thresholds route each dataset class to "
               "its own mapping of the nest onto the hardware levels.\n";
  return 0;
}
