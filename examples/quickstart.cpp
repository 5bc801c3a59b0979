// Quickstart: build a nested-parallel program, flatten it incrementally,
// inspect the generated code versions, autotune the thresholds, and run it.
//
//   $ ./examples/quickstart
//
// The program is a batched dot-product — map over rows of a redomap —
// whose best mapping depends on whether the batch or the vectors carry the
// parallelism, which is exactly the ambiguity incremental flattening
// resolves at run time.
#include <iostream>

#include "src/autotune/autotune.h"
#include "src/exec/exec.h"
#include "src/ir/builder.h"
#include "src/ir/print.h"
#include "src/ir/typecheck.h"
#include "src/support/rng.h"

using namespace incflat;
using namespace incflat::ib;

int main() {
  // ---------------------------------------------------------------- 1. IR
  // batched_dot xss ys = map (\xs -> redomap (+) (*) 0 xs ys) xss
  Program p;
  p.name = "batched_dot";
  p.inputs = {
      {"xss", Type::array(Scalar::F32, {Dim::v("rows"), Dim::v("cols")})},
      {"ys", Type::array(Scalar::F32, {Dim::v("cols")})},
  };
  Lambda mul2 = lam({ib::p("x", Type::scalar(Scalar::F32)),
                     ib::p("y", Type::scalar(Scalar::F32))},
                    mul(var("x"), var("y")));
  p.body = map1(lam({ib::p("xs", Type())},
                    redomap(binlam("+", Scalar::F32), mul2, {cf32(0)},
                            {var("xs"), var("ys")})),
                var("xss"));
  p = typecheck_program(std::move(p));
  std::cout << "source program:\n" << pretty(p) << "\n";

  // ------------------------------------------------------------ 2. Flatten
  Compiled c = compile(p, FlattenMode::Incremental);
  std::cout << "incrementally flattened (every guarded version):\n"
            << pretty(c.flat.program) << "\n";
  std::cout << "threshold branching tree:\n"
            << c.flat.thresholds.tree_str() << "\n";

  // ------------------------------------------------------------- 3. Tune
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train = {
      {"tall", {{"rows", 1 << 18}, {"cols", 16}}, 1.0},
      {"wide", {{"rows", 4}, {"cols", 1 << 20}}, 1.0},
  };
  TuningReport rep = autotune(dev, *c.plan, train);
  std::cout << "autotuned on " << train.size() << " datasets: cost "
            << rep.default_cost_us << "us (default) -> " << rep.best_cost_us
            << "us (tuned), " << rep.evaluations << " evaluations, "
            << rep.dedup_hits << " branching-tree dedup hits\n\n";

  // ------------------------------------------------ 4. Simulate both shapes
  for (const SizeEnv& sizes :
       {SizeEnv{{"rows", 1 << 16}, {"cols", 64}},
        SizeEnv{{"rows", 8}, {"cols", 1 << 19}}}) {
    RunEstimate est = simulate(dev, c, sizes, rep.best);
    std::cout << "rows=" << sizes.at("rows") << " cols=" << sizes.at("cols")
              << ": " << estimate_str(est) << "\n";
    for (const auto& [t, taken] : est.guards) {
      std::cout << "    guard " << t << " -> " << (taken ? "T" : "F") << "\n";
    }
  }

  // ------------------------------------------- 5. Execute for real values
  Rng rng(1);
  const SizeEnv small{{"rows", 4}, {"cols", 6}};
  Value xss = Value::zeros(Scalar::F32, {4, 6});
  Value ys = Value::zeros(Scalar::F32, {6});
  for (int64_t i = 0; i < 24; ++i) xss.fset(i, rng.uniform(-1, 1));
  for (int64_t i = 0; i < 6; ++i) ys.fset(i, rng.uniform(-1, 1));
  Values ref = execute_source(c, small, {xss, ys});
  Values got = execute(dev, c, small, rep.best, {xss, ys});
  std::cout << "\nsource semantics:   " << ref[0].str()
            << "\nflattened semantics: " << got[0].str() << "\n"
            << (got[0].approx_equal(ref[0]) ? "MATCH" : "MISMATCH") << "\n";
  return got[0].approx_equal(ref[0]) ? 0 : 1;
}
