// Figure 2: matrix multiplication runtime sweep.
//
// Multiplies 2^n x 2^m by 2^m x 2^n with constant work 2^k, n = 0..10,
// m = k - 2n, for k = 20 and k = 25.  Thresholds are trained on the k = 20
// sweep and applied to the k = 25 sweep, exactly as in the paper.  Series:
// moderate flattening (the "one size fits all" green line), untuned
// incremental flattening (black), autotuned incremental flattening (red),
// and the library-GEMM reference (cuBLAS on the K40 profile, Parboil on the
// Vega 64 profile — gray).
#include "bench/harness.h"
#include "src/benchsuite/reference.h"
#include "src/support/chart.h"

namespace incflat {
namespace {

using bench::Checks;

SizeEnv mm_sizes(int n_exp, int k_total) {
  const int m_exp = k_total - 2 * n_exp;
  return SizeEnv{{"n", int64_t{1} << n_exp},
                 {"m", int64_t{1} << m_exp},
                 {"k", int64_t{1} << n_exp}};
}

int run() {
  Benchmark b = get_benchmark("matmul");
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};

  const Compiled mf = compile(b.program, FlattenMode::Moderate);
  const Compiled inc = compile(b.program, FlattenMode::Incremental);
  const KernelPlan& mf_plan = *mf.plan;
  const KernelPlan& inc_plan = *inc.plan;

  // Train on the k=20 sweep (paper Sec. 2.2).
  std::vector<TuningDataset> train;
  for (int n = 0; n <= 10; ++n) {
    if (20 - 2 * n < 0) break;
    train.push_back({"n" + std::to_string(n), mm_sizes(n, 20), 1.0});
  }

  Checks checks;
  for (const auto& dev : devices) {
    TuningReport rep = exhaustive_tune(dev, inc_plan, train);
    for (int k_total : {20, 25}) {
      std::cout << "\n=== Figure 2: matmul, constant work 2^" << k_total
                << ", device " << dev.name << " ===\n";
      Table t({"n", "moderate(us)", "IF-untuned(us)", "IF-tuned(us)",
               "reference(us)"});
      std::vector<double> mf_t, if_t, aif_t, ref_t;
      for (int n = 0; n <= 10; ++n) {
        if (k_total - 2 * n < 0) break;
        const SizeEnv sz = mm_sizes(n, k_total);
        const double m = bench::sim(mf_plan, dev, sz).time_us;
        const double u = bench::sim(inc_plan, dev, sz).time_us;
        const double a = bench::sim(inc_plan, dev, sz, rep.best).time_us;
        const double r =
            reference_gemm(dev, sz.at("n"), sz.at("m"), sz.at("k"));
        mf_t.push_back(m);
        if_t.push_back(u);
        aif_t.push_back(a);
        ref_t.push_back(r);
        t.row({std::to_string(n), fmt_double(m, 1), fmt_double(u, 1),
               fmt_double(a, 1), fmt_double(r, 1)});
      }
      t.print(std::cout);
      print_log_chart(std::cout,
                      {{"moderate", 'm', mf_t},
                       {"IF-untuned", 'u', if_t},
                       {"IF-tuned", 'T', aif_t},
                       {"reference", 'r', ref_t}});

      if (k_total == 20) {
        checks.expect(mf_t[0] / aif_t[0] > 10.0,
                      dev.name + ": moderate flattening loses badly on "
                      "degenerate shapes (n=0)");
        checks.expect(aif_t.back() < 1.3 * mf_t.back(),
                      dev.name + ": tuned IF matches moderate flattening "
                      "at large n (best of both worlds)");
        checks.expect(ref_t[0] > aif_t[0],
                      dev.name + ": library GEMM is suboptimal on the "
                      "degenerate n<3 datasets");
        // The tuned program must match the best version at every point.
        bool best_everywhere = true;
        for (size_t i = 0; i < aif_t.size(); ++i) {
          best_everywhere &= aif_t[i] <= 1.25 * std::min(mf_t[i], if_t[i]);
        }
        checks.expect(best_everywhere,
                      dev.name + ": tuned IF within 25% of best "
                      "compiler version at every n");
      } else {
        checks.expect(ref_t[9] < aif_t[9] && ref_t[10] < aif_t[10],
                      dev.name + ": library GEMM wins at n=9,10 for k=25 "
                      "(register tiling)");
      }
    }
  }
  return checks.print(std::cout);
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
