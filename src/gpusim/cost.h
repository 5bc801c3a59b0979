// Analytic cost model over target-language programs.
//
// The model walks a flattened (target) program with concrete dataset sizes
// and a threshold assignment, follows exactly the code versions the guards
// select, and prices every kernel with a roofline-style formula:
//
//   time = launch_overhead
//        + max(flops / (flop_rate * u),
//              global_bytes / (gmem_bw * u),
//              local_bytes  / (lmem_bw * u))
//   u    = min(1, total_threads / saturation_threads)
//
// Level-1 kernels with intra-group (level-0) content stage their per-group
// inputs/outputs through global memory once and run all intermediate
// traffic through local memory (the Sec. 5.2 "two global accesses per
// element for all three scans" behaviour); their per-group scratchpad
// requirement is checked against the device limit, falling back to global
// memory with a penalty when exceeded (the Sec. 4.1 "fallback kernel").
// Sequentialised redomaps inside block_tiled segmaps read tile_size times
// less global traffic (block tiling, Sec. 2.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/device.h"
#include "src/interp/interp.h"
#include "src/ir/expr.h"

namespace incflat {

/// flop / byte tallies of a region of code.
struct Work {
  double flops = 0;
  double gbytes = 0;  // global-memory traffic
  double lbytes = 0;  // local-memory traffic

  Work& operator+=(const Work& o) {
    flops += o.flops;
    gbytes += o.gbytes;
    lbytes += o.lbytes;
    return *this;
  }
  Work operator*(double s) const { return Work{flops * s, gbytes * s, lbytes * s}; }
};

/// One priced kernel (for reports and tests).
struct KernelCost {
  std::string what;      // segmap^1 / segred^1 / ...
  double time_us = 0;
  int64_t threads = 0;
  Work work;
  bool used_local_fallback = false;  // scratchpad exceeded -> global fallback
};

/// Whole-run estimate.
struct RunEstimate {
  double time_us = 0;
  int64_t kernel_launches = 0;
  Work total;
  std::vector<KernelCost> kernels;
  /// Branch taken by every guard evaluated, in evaluation order.
  std::vector<std::pair<std::string, bool>> guards;
};

/// Price one whole program run on `dev` with dataset `sizes` under the given
/// threshold assignment.
RunEstimate estimate_run(const DeviceProfile& dev, const Program& p,
                         const SizeEnv& sizes, const ThresholdEnv& thresholds);

/// Evaluate a scalar integer expression (loop counts, size arithmetic) under
/// a size environment.  Supports vars, constants and integer arithmetic.
int64_t eval_size_scalar(const ExprP& e, const SizeEnv& sizes);

/// Roofline time (microseconds) of one hand-priced kernel on `dev`: the
/// same formula the cost walker uses, exposed for the reference-
/// implementation models of cuBLAS / FinPar / Rodinia kernels.
double roofline_time(const DeviceProfile& dev, const Work& w, int64_t threads,
                     int launches);

/// flop charge of a scalar unary / binary operator.  Shared by the
/// walker and the plan builder (src/plan/) so the two models cannot drift.
double unop_flop_cost(const std::string& op);
double binop_flop_cost(const std::string& op);

}  // namespace incflat
