// The pass-manager pipeline (src/pass/pass.h) against its contract:
//
//  * golden output identity — for every benchsuite program and all three
//    modes, the canned flatten() pipeline, an explicitly composed pass
//    list, and exec::compile() produce the same pretty-printed target IR,
//    the same threshold tree, and bit-identical plan estimates;
//  * pinned output — one hash per benchmark and mode over the target IR,
//    the threshold tree and the lint findings on both devices;
//  * --verify-each equivalent: verification, annotations included, passes
//    clean after every pass on the whole suite, and the plan's threshold
//    slots list the registry's names in order; a pass that mistypes a node
//    fails verification under verify_each or INCFLAT_VERIFY_EACH,
//    attributed to that pass;
//  * registry behaviour: mode_from_name round-trips, unknown pass/mode
//    names fail with messages listing the valid ones, omitting plan-build
//    leaves Compiled::plan null and simulate() prices on a throwaway plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/gpusim/device.h"
#include "src/ir/print.h"
#include "src/ir/verify.h"
#include "src/pass/pass.h"
#include "src/plan/plan.h"
#include "src/support/diag.h"
#include "src/support/error.h"
#include "src/support/json.h"

namespace incflat {
namespace {

const std::vector<FlattenMode> kModes{
    FlattenMode::Moderate, FlattenMode::Incremental, FlattenMode::Full};

CompileOptions opts_for(const Benchmark& b, FlattenMode mode) {
  CompileOptions o;
  o.flatten.fuse = mode != FlattenMode::Moderate || b.fuse_moderate;
  return o;
}

TEST(Pipeline, CannedFlattenMatchesExplicitPassComposition) {
  // The refactor's golden identity: flatten() is nothing but the canned
  // pass sequence, so composing the same passes by name must reproduce its
  // output exactly, program for program, mode for mode.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : kModes) {
      CompileOptions o = opts_for(b, mode);
      const FlattenResult canned = flatten(b.program, mode, o.flatten);

      o.passes = {"fusion", "normalize", "transform", "prune-segbinds",
                  "tiling"};
      const Compiled explicit_c = compile(b.program, mode, o);

      EXPECT_EQ(pretty(canned.program), pretty(explicit_c.flat.program))
          << name << " / " << mode_name(mode);
      EXPECT_EQ(canned.thresholds.tree_str(),
                explicit_c.flat.thresholds.tree_str())
          << name << " / " << mode_name(mode);
      EXPECT_EQ(explicit_c.plan, nullptr);  // plan-build was not requested
    }
  }
}

TEST(Pipeline, SuiteOutputIsPinned) {
  // FNV-1a over pretty(target IR) + threshold tree + lint findings on k40
  // and vega64, per benchmark and mode (moderate, incremental, full): a
  // pass or lint change that alters any output byte fails here.
  struct Pin {
    const char* bench;
    uint64_t hash[3];
  };
  const Pin pins[] = {
      {"matmul",
       {0x7a83cbcf222b6e3aULL, 0xe683651a05658056ULL, 0xd71194a607011446ULL}},
      {"LocVolCalib",
       {0x10e0deb1b55318abULL, 0x5e7125c336c1e02fULL, 0x10e0deb1b55318abULL}},
      {"Heston",
       {0x462068357581c448ULL, 0x34b920143ea84492ULL, 0x5846828c15b67781ULL}},
      {"OptionPricing",
       {0xae7489ae6b9056f5ULL, 0xcf508f6fa116a44aULL, 0xfa8f8374b77e9c61ULL}},
      {"Backprop",
       {0x8fae8b9f9fd73c8fULL, 0xa69ed0fd9c30c2acULL, 0xf3450d1bc6323fd3ULL}},
      {"LavaMD",
       {0x634fc62e03f7cc8dULL, 0xc3d19918d81ca549ULL, 0x72ef9efaa7ea4b54ULL}},
      {"NW",
       {0x7964d70fac90e884ULL, 0xf9d641e557b95a04ULL, 0x7964d70fac90e884ULL}},
      {"NN",
       {0x8aa85980c4c705aeULL, 0x5fd035d8455dc726ULL, 0x35705d2deb99b008ULL}},
      {"SRAD",
       {0x8049d56d7d60faccULL, 0x9065f02971022923ULL, 0xab6ccccb57236c60ULL}},
      {"Pathfinder",
       {0x63ba3c4754d13a6aULL, 0x2b93bfba3096635eULL, 0x63ba3c4754d13a6aULL}},
  };
  for (const Pin& pin : pins) {
    const Benchmark b = get_benchmark(pin.bench);
    for (size_t m = 0; m < kModes.size(); ++m) {
      const Compiled c = compile(b.program, kModes[m], opts_for(b, kModes[m]));
      std::string text = pretty(c.flat.program) + c.flat.thresholds.tree_str();
      for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
        analysis::LintOptions lo;
        lo.limits = analysis::limits_for(dev);
        lo.device_name = dev.name;
        text += diagnostics_str(
            analysis::lint_program(c.flat.program, lo));
      }
      const std::string ctx =
          std::string(pin.bench) + " / " + mode_name(kModes[m]);
      const uint64_t got = journal_hash(text.data(), text.size());
      EXPECT_EQ(got, pin.hash[m]) << ctx << ": 0x" << std::hex << got;
    }
  }
}

/// The estimate fields `incflatc --json` prints for one dataset run.
Json estimate_json(const RunEstimate& est) {
  Json j = Json::object();
  j.set("time_us", est.time_us)
      .set("kernel_launches", est.kernel_launches)
      .set("global_bytes", est.total.gbytes)
      .set("local_bytes", est.total.lbytes)
      .set("flops", est.total.flops);
  Json guards = Json::array();
  for (const auto& [name, taken] : est.guards) {
    guards.push(Json::object().set("threshold", name).set("taken", taken));
  }
  j.set("guards", std::move(guards));
  Json kernels = Json::array();
  for (const auto& k : est.kernels) {
    kernels.push(Json::object()
                     .set("kind", k.what)
                     .set("time_us", k.time_us)
                     .set("threads", k.threads)
                     .set("fallback", k.used_local_fallback));
  }
  j.set("kernels", std::move(kernels));
  return j;
}

TEST(Pipeline, PlanAndEstimatesArePinned) {
  // FNV-1a per benchmark and mode over what SuiteOutputIsPinned leaves
  // out: the unfused target IR and threshold tree, the default compile's
  // plan statistics, and its estimate on k40 and vega64 for every
  // evaluation and tuning dataset, in the fields `incflatc --json` prints.
  struct Pin {
    const char* bench;
    uint64_t hash[3];
  };
  const Pin pins[] = {
      {"matmul",
       {0x299fa9832b163d4dULL, 0x980804573d1942b3ULL, 0x13ad535b07464c79ULL}},
      {"LocVolCalib",
       {0x485c17165651ac8bULL, 0x692725ae9490df3cULL, 0x485c17165651ac8bULL}},
      {"Heston",
       {0x7b3a59de8a64a0b7ULL, 0xd63e9dfebcbcb0abULL, 0x604cd90c0c60fe47ULL}},
      {"OptionPricing",
       {0xe81dd6ecf6ec0545ULL, 0x87aca24988f7f081ULL, 0x2b996cb188cf118dULL}},
      {"Backprop",
       {0x713116de5d7e06beULL, 0x9edb27eca3246e04ULL, 0x0ca3cf73d50ace86ULL}},
      {"LavaMD",
       {0xbe997c8c50fc5dbaULL, 0x349c6aa846e56161ULL, 0x71dab40ba23f53d6ULL}},
      {"NW",
       {0xf2fbdb9667625709ULL, 0x94384b380211e757ULL, 0xf2fbdb9667625709ULL}},
      {"NN",
       {0x387e55e6200365ecULL, 0xddf03203eb51fc41ULL, 0xed1ea8fb077ed067ULL}},
      {"SRAD",
       {0xbb361d294a7c46eeULL, 0xe9de43ba90b37d01ULL, 0x31e00fc3a3b0d58eULL}},
      {"Pathfinder",
       {0x8c6b35a2e6c95eacULL, 0x80799415bbe09cebULL, 0x8c6b35a2e6c95eacULL}},
  };
  for (const Pin& pin : pins) {
    const Benchmark b = get_benchmark(pin.bench);
    for (size_t m = 0; m < kModes.size(); ++m) {
      CompileOptions no_fuse;
      no_fuse.flatten.fuse = false;
      const Compiled u = compile(b.program, kModes[m], no_fuse);
      std::string text = pretty(u.flat.program) + u.flat.thresholds.tree_str();
      const Compiled c = compile(b.program, kModes[m], opts_for(b, kModes[m]));
      ASSERT_NE(c.plan, nullptr);
      text += plan_stats(*c.plan) + "\n";
      for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
        for (const auto* sets : {&b.datasets, &b.tuning}) {
          for (const BenchDataset& d : *sets) {
            text += estimate_json(simulate(dev, c, d.sizes)).str() + "\n";
          }
        }
      }
      const std::string ctx =
          std::string(pin.bench) + " / " + mode_name(kModes[m]);
      const uint64_t got = journal_hash(text.data(), text.size());
      EXPECT_EQ(got, pin.hash[m]) << ctx << ": 0x" << std::hex << got;
    }
  }
}

TEST(Pipeline, CompileEstimatesAreBitIdenticalAcrossCompositions) {
  // Plan estimates from the default compile() pipeline equal (double ==)
  // those from an explicitly composed pipeline and from the legacy IR
  // walker, for every benchmark dataset and device.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental}) {
      CompileOptions o = opts_for(b, mode);
      const Compiled canned = compile(b.program, mode, o);
      o.passes = {"fusion", "normalize", "transform", "prune-segbinds",
                  "tiling", "plan-build"};
      const Compiled explicit_c = compile(b.program, mode, o);
      ASSERT_NE(canned.plan, nullptr);
      ASSERT_NE(explicit_c.plan, nullptr);
      for (const auto& dev : {device_k40(), device_vega64()}) {
        for (const auto& d : b.datasets) {
          const RunEstimate a = simulate(dev, canned, d.sizes);
          const RunEstimate c = simulate(dev, explicit_c, d.sizes);
          const RunEstimate w =
              estimate_run(dev, canned.flat.program, d.sizes, {});
          EXPECT_EQ(a.time_us, c.time_us) << name << "/" << d.name;
          EXPECT_EQ(a.time_us, w.time_us) << name << "/" << d.name;
          EXPECT_EQ(a.kernel_launches, w.kernel_launches)
              << name << "/" << d.name;
          EXPECT_EQ(a.total.gbytes, w.total.gbytes) << name << "/" << d.name;
        }
      }
    }
  }
}

TEST(Pipeline, EveryPassEmitsExactTypes) {
  // No pass re-typechecks: each types the nodes it builds.  verify_each
  // compares every annotation with a fresh typecheck after every pass, so
  // a type a pass got wrong fails here.  Plan guard i is registry entry i:
  // the tuner's candidate vectors and its report keys rest on that.
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : kModes) {
      CompileOptions o = opts_for(b, mode);
      o.verify_each = true;
      const std::string ctx = name + " / " + mode_name(mode);
      try {
        const Compiled c = compile(b.program, mode, o);
        const auto& reg = c.flat.thresholds.all();
        ASSERT_EQ(c.plan->guards.size(), reg.size()) << ctx;
        for (size_t i = 0; i < reg.size(); ++i) {
          const GuardInfo& g = c.plan->guards[i];
          EXPECT_EQ(g.threshold, reg[i].name) << ctx;
          EXPECT_EQ(g.par, reg[i].par) << ctx;
          EXPECT_EQ(g.fit, reg[i].fit) << ctx;
        }
      } catch (const CompilerError& e) {
        ADD_FAILURE() << ctx << ": " << e.what();
      }
    }
  }
}

/// A test-only pass that gives the program's body a wrong result type, as
/// a pass that mistyped a node it built would.
class MistypeBodyPass : public Pass {
 public:
  const char* name() const override { return "mistype-body"; }
  const char* span_name() const override { return "pass.mistype-body"; }
  void run(PipelineState& st) const override {
    st.program.body = mk(st.program.body->node, {Type::scalar(Scalar::Bool)});
  }
};

/// Runs the incremental pipeline's first three passes and then the
/// mistyping pass over matmul; returns the VerifyError it raised, if any.
std::optional<VerifyError> run_mistyped(const PassManagerOptions& po) {
  PassManager pm;
  pm.add("fusion").add("normalize").add("incremental");
  pm.add(std::make_unique<MistypeBodyPass>());
  PipelineState st;
  st.program = get_benchmark("matmul").program;
  try {
    pm.run(st, po);
  } catch (const VerifyError& e) {
    return e;
  }
  return std::nullopt;
}

TEST(Pipeline, VerifyEachNamesThePassThatMistypedANode) {
  PassManagerOptions po;
  po.verify_each = true;
  const std::optional<VerifyError> e = run_mistyped(po);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->check(), "types");
  EXPECT_EQ(e->context(), "after pass 'mistype-body'");
}

TEST(Pipeline, VerifyEachEnvironmentVariableForcesVerification) {
  // The caller's setting is restored afterwards: CI's sanitize job runs
  // every test with INCFLAT_VERIFY_EACH=1.
  const char* prev = std::getenv("INCFLAT_VERIFY_EACH");
  const std::string saved = prev ? prev : "";
  ::setenv("INCFLAT_VERIFY_EACH", "1", 1);
  const std::optional<VerifyError> e = run_mistyped({});
  if (prev) {
    ::setenv("INCFLAT_VERIFY_EACH", saved.c_str(), 1);
  } else {
    ::unsetenv("INCFLAT_VERIFY_EACH");
  }
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->check(), "types");
  EXPECT_EQ(e->context(), "after pass 'mistype-body'");
}

TEST(Pipeline, AfterPassObserverSeesEveryPassInOrder) {
  const Benchmark b = get_benchmark("matmul");
  CompileOptions o;
  std::vector<std::string> seen;
  o.after_pass = [&seen](const std::string& pass, const Program&) {
    seen.push_back(pass);
  };
  compile(b.program, FlattenMode::Incremental, o);
  EXPECT_EQ(seen, (std::vector<std::string>{"fusion", "normalize",
                                            "incremental", "prune-segbinds",
                                            "tiling", "plan-build"}));
}

TEST(Pipeline, MissingPlanBuildSimulatesOnAThrowawayPlan) {
  const Benchmark b = get_benchmark("matmul");
  CompileOptions o;
  o.passes = {"fusion", "normalize", "transform", "prune-segbinds", "tiling"};
  const Compiled c = compile(b.program, FlattenMode::Incremental, o);
  EXPECT_EQ(c.plan, nullptr);
  for (const auto& d : b.datasets) {
    const RunEstimate via_facade = simulate(device_k40(), c, d.sizes);
    const RunEstimate via_walker =
        estimate_run(device_k40(), c.flat.program, d.sizes, {});
    EXPECT_EQ(via_facade.time_us, via_walker.time_us) << d.name;
    EXPECT_EQ(via_facade.kernel_launches, via_walker.kernel_launches)
        << d.name;
    EXPECT_EQ(via_facade.total.flops, via_walker.total.flops) << d.name;
    EXPECT_EQ(via_facade.total.gbytes, via_walker.total.gbytes) << d.name;
    EXPECT_EQ(via_facade.total.lbytes, via_walker.total.lbytes) << d.name;
    ASSERT_EQ(via_facade.kernels.size(), via_walker.kernels.size()) << d.name;
    for (size_t k = 0; k < via_walker.kernels.size(); ++k) {
      EXPECT_EQ(via_facade.kernels[k].what, via_walker.kernels[k].what);
      EXPECT_EQ(via_facade.kernels[k].time_us, via_walker.kernels[k].time_us);
    }
    EXPECT_EQ(via_facade.guards, via_walker.guards) << d.name;
  }
}

TEST(Pipeline, ModeFromNameRoundTripsAndRejectsUnknown) {
  for (FlattenMode m : kModes) {
    EXPECT_EQ(mode_from_name(mode_name(m)), m);
  }
  // A user-facing error: the valid modes, and no source location.
  try {
    mode_from_name("agressive");
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown flattening mode 'agressive' (valid modes: "
                 "moderate, incremental, full)");
  }
}

TEST(Pipeline, UnknownPassNameListsRegistry) {
  try {
    make_pass("constant-folding");
    FAIL() << "expected CompilerError";
  } catch (const CompilerError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown pass 'constant-folding' (known passes: fusion, "
                 "normalize, moderate, incremental, full, prune-segbinds, "
                 "tiling, plan-build)");
  }
}

}  // namespace
}  // namespace incflat
