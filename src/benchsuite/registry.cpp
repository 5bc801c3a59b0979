#include <map>

#include "src/benchsuite/benchmark.h"
#include "src/support/error.h"

namespace incflat {

Value random_f32(Rng& rng, std::vector<int64_t> shape, double lo, double hi) {
  Value v = Value::zeros(Scalar::F32, std::move(shape));
  for (int64_t i = 0; i < v.count(); ++i) v.fset(i, rng.uniform(lo, hi));
  return v;
}

const std::vector<Benchmark>& bulk_benchmarks() {
  static const std::vector<Benchmark> all = [] {
    std::vector<Benchmark> v;
    v.push_back(bench_heston());
    v.push_back(bench_optionpricing());
    v.push_back(bench_backprop());
    v.push_back(bench_lavamd());
    v.push_back(bench_nw());
    v.push_back(bench_nn());
    v.push_back(bench_srad());
    v.push_back(bench_pathfinder());
    return v;
  }();
  return all;
}

Benchmark get_benchmark(const std::string& name) {
  if (name == "matmul") return bench_matmul();
  if (name == "LocVolCalib") return bench_locvolcalib();
  for (const auto& b : bulk_benchmarks()) {
    if (b.name == name) return b;
  }
  throw CompilerError("unknown benchmark: " + name);
}

std::vector<std::string> all_benchmark_names() {
  std::vector<std::string> out{"matmul", "LocVolCalib"};
  for (const auto& b : bulk_benchmarks()) out.push_back(b.name);
  return out;
}

}  // namespace incflat
