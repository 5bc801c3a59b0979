// Unit tests: the exec facade — compile/simulate/execute coherence with
// the underlying APIs, and runtime failure injection in the interpreter.
#include <gtest/gtest.h>

#include <string>

#include "src/exec/exec.h"
#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
#include "src/support/error.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

using namespace ib;

Program square_program() {
  Program p;
  p.name = "sq";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = map1(lam({ib::p("x", Type::scalar(Scalar::F32))},
                    mul(var("x"), var("x"))),
                var("xs"));
  return typecheck_program(std::move(p));
}

TEST(Exec, CompileRejectsUntypedSource) {
  // The passes keep the caller's annotations and never re-typecheck, so an
  // unchecked program is refused on entry, naming the missing step, rather
  // than crashing in a later pass that reads its types.
  Program p = square_program();
  p.body = map1(lam({ib::p("x", Type::scalar(Scalar::F32))},
                    mul(var("x"), var("x"))),
                var("xs"));  // as built, before typecheck_program
  for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                           FlattenMode::Full}) {
    try {
      compile(p, mode);
      ADD_FAILURE() << mode_name(mode) << ": expected CompilerError";
    } catch (const CompilerError& e) {
      EXPECT_NE(std::string(e.what()).find("typecheck_program"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(flatten(p, mode), CompilerError);
  }
  EXPECT_NO_THROW(compile(typecheck_program(p), FlattenMode::Incremental));
}

TEST(Exec, CompileMatchesDirectFlatten) {
  Program p = square_program();
  Compiled c = compile(p, FlattenMode::Incremental);
  FlattenResult direct = flatten(p, FlattenMode::Incremental);
  EXPECT_EQ(c.flat.thresholds.size(), direct.thresholds.size());
  EXPECT_EQ(c.mode, FlattenMode::Incremental);
}

TEST(Exec, SimulateEqualsEstimateRun) {
  Compiled c = compile(square_program(), FlattenMode::Moderate);
  const DeviceProfile dev = device_k40();
  const SizeEnv sz{{"n", 4096}};
  EXPECT_EQ(simulate(dev, c, sz).time_us,
            estimate_run(dev, c.flat.program, sz, {}).time_us);
}

TEST(Exec, ExecuteMatchesSourceSemantics) {
  Compiled c = compile(square_program(), FlattenMode::Incremental);
  const SizeEnv sz{{"n", 5}};
  Value xs = Value::zeros(Scalar::F32, {5});
  for (int64_t i = 0; i < 5; ++i) xs.fset(i, static_cast<double>(i));
  Values src = execute_source(c, sz, {xs});
  Values tgt = execute(device_k40(), c, sz, {}, {xs});
  EXPECT_TRUE(tgt[0].approx_equal(src[0]));
}

TEST(Exec, ExecuteRespectsDeviceGroupLimit) {
  // The fit constraint consults the device's max_group_size; both devices
  // must still compute the same values.
  Compiled c = compile(square_program(), FlattenMode::Incremental);
  const SizeEnv sz{{"n", 3}};
  Value xs = Value::zeros(Scalar::F32, {3});
  Values a = execute(device_k40(), c, sz, {}, {xs});
  Values b = execute(device_vega64(), c, sz, {}, {xs});
  EXPECT_TRUE(a[0].approx_equal(b[0]));
}

TEST(Exec, EstimateStrIsInformative) {
  Compiled c = compile(square_program(), FlattenMode::Moderate);
  RunEstimate est = simulate(device_k40(), c, {{"n", 1024}});
  const std::string s = estimate_str(est);
  EXPECT_NE(s.find("launches"), std::string::npos);
  EXPECT_NE(s.find("MB"), std::string::npos);
}

TEST(Exec, InputArityAndShapeChecked) {
  Compiled c = compile(square_program(), FlattenMode::Moderate);
  const SizeEnv sz{{"n", 5}};
  EXPECT_THROW(execute_source(c, sz, {}), EvalError);          // arity
  Value wrong = Value::zeros(Scalar::F32, {4});
  EXPECT_THROW(execute_source(c, sz, {wrong}), EvalError);     // shape
  Value wrong_rank = Value::zeros(Scalar::F32, {5, 1});
  EXPECT_THROW(execute_source(c, sz, {wrong_rank}), EvalError);
}

TEST(Exec, MultiResultProgramsRoundTrip) {
  Program p;
  p.name = "split";
  p.inputs = {{"xs", Type::array(Scalar::F32, {Dim::v("n")})}};
  p.body = map1(lam({ib::p("x", Type::scalar(Scalar::F32))},
                    tuple({add(var("x"), cf32(1)), mul(var("x"), cf32(2))})),
                var("xs"));
  p = typecheck_program(std::move(p));
  Compiled c = compile(p, FlattenMode::Incremental);
  const SizeEnv sz{{"n", 4}};
  Rng rng(2);
  Value xs = Value::zeros(Scalar::F32, {4});
  for (int64_t i = 0; i < 4; ++i) xs.fset(i, rng.uniform(-1, 1));
  Values src = execute_source(c, sz, {xs});
  Values tgt = execute(device_k40(), c, sz, {}, {xs});
  ASSERT_EQ(src.size(), 2u);
  ASSERT_EQ(tgt.size(), 2u);
  EXPECT_TRUE(tgt[0].approx_equal(src[0]));
  EXPECT_TRUE(tgt[1].approx_equal(src[1]));
}

}  // namespace
}  // namespace incflat
