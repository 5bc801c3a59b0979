// incflatc — command-line driver for the incremental-flattening pipeline.
//
//   incflatc --list
//   incflatc --benchmark matmul --mode incremental --print-ir --tree
//   incflatc --benchmark LocVolCalib --device vega64 --dataset small
//   incflatc --benchmark Heston --device k40 --tune --out heston.tuning
//   incflatc --benchmark Heston --device k40 --dataset D1
//            --tuning heston.tuning --json
//
// This is the "downstream user" entry point: compile a benchmark (or all of
// them), inspect the generated multi-versioned code and its branching tree,
// autotune, persist/load `.tuning` files, and price datasets on the two
// simulated device profiles.
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/analysis/lint.h"
#include "src/autotune/autotune.h"
#include "src/autotune/tuning_file.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/gpusim/faults.h"
#include "src/ir/print.h"
#include "src/ir/traverse.h"
#include "src/ir/verify.h"
#include "src/plan/plan.h"
#include "src/support/diag.h"
#include "src/support/error.h"
#include "src/support/json.h"
#include "src/support/str.h"
#include "src/support/table.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

struct Options {
  std::string benchmark;
  std::string mode = "incremental";
  std::string device = "k40";
  std::string dataset;
  std::string tuning_in;
  std::string tuning_out;
  bool list = false;
  bool print_ir = false;
  bool print_tree = false;
  bool print_plan = false;
  bool lint = false;
  bool lint_json = false;
  bool simplify = false;
  bool tune = false;
  bool exhaustive = false;
  bool json = false;
  bool stats = false;
  bool trace = false;
  std::string trace_out = "trace.json";
  bool no_fuse = false;
  bool verify_each = false;
  std::string passes;       // comma-separated pass list ("" = canned)
  std::string print_after;  // pass name, or "all"
  std::string faults;       // --faults SPEC (or INCFLAT_FAULTS)
  uint64_t fault_seed = 0xfa0175eedULL;
  bool fault_seed_set = false;
  std::string run_policy;   // --run-policy SPEC
  std::string tune_journal; // --tune-journal FILE
  bool resume = false;
};

int usage() {
  std::cerr <<
      "usage: incflatc [options]\n"
      "  --list                      list benchmarks and datasets\n"
      "  --benchmark NAME            select a benchmark\n"
      "  --mode M                    moderate | incremental | full\n"
      "  --device D                  k40 | vega64\n"
      "  --dataset NAME              simulate one evaluation dataset\n"
      "  --tune                      autotune on the training datasets\n"
      "  --exhaustive                use the branch-complete tuner\n"
      "  --tuning FILE               load thresholds from a .tuning file\n"
      "  --out FILE                  write tuned thresholds to FILE\n"
      "  --print-ir                  print the flattened program\n"
      "  --tree                      print the threshold branching tree\n"
      "  --plan                      print kernel-plan statistics\n"
      "  --lint                      run the static-analysis lints on the\n"
      "                              compiled program (dead versions, local\n"
      "                              memory overflow, unused bindings); exit\n"
      "                              non-zero on error-severity findings\n"
      "  --lint-json                 like --lint, structured JSON output\n"
      "  --simplify                  run the simplify-guards pass: fold\n"
      "                              guards the size analysis proves\n"
      "                              constant for the device, delete dead\n"
      "                              versions and their thresholds\n"
      "  --no-fuse                   skip pre-flattening fusion (the paper's\n"
      "                              Sec. 5.3 Backprop ablation)\n"
      "  --passes LIST               run this comma-separated pass pipeline\n"
      "                              instead of the canned one ('transform'\n"
      "                              is an alias for the mode's pass)\n"
      "  --verify-each               verify IR invariants after every pass\n"
      "  --print-after PASS          print the program after PASS ran\n"
      "                              ('all' = after every pass)\n"
      "  --json                      machine-readable output\n"
      "  --trace[=FILE]              write a Chrome trace-event JSON of the\n"
      "                              pipeline (default trace.json); open in\n"
      "                              chrome://tracing or ui.perfetto.dev\n"
      "  --stats                     print per-phase timings and pipeline\n"
      "                              counters after the run\n"
      "  --faults SPEC               inject simulated faults: off, or a\n"
      "                              list of key=rate (launch-failed,\n"
      "                              launch-timeout, local-alloc,\n"
      "                              device-lost, noise; all=R spreads R\n"
      "                              over the four launch kinds) and\n"
      "                              scripted kind@launch-index entries;\n"
      "                              also read from INCFLAT_FAULTS\n"
      "  --fault-seed N              fault/noise RNG seed, 0..2^64-1:\n"
      "                              decimal, 0x hex or 0 octal (also\n"
      "                              INCFLAT_FAULT_SEED)\n"
      "  --run-policy SPEC           fault handling: retries, backoff,\n"
      "                              backoff-cap, timeout, degradations\n"
      "  --tune-journal FILE         append every tuner evaluation to a\n"
      "                              crash-safe journal\n"
      "  --resume                    resume --tune from --tune-journal to a\n"
      "                              bit-identical report\n"
      "exit codes: 0 success; 1 verification/lint/run failure; 2 usage;\n"
      "            3 input file missing, unreadable or malformed\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  const std::map<std::string, std::string*> values = {
      {"--benchmark", &o.benchmark}, {"--mode", &o.mode},
      {"--device", &o.device}, {"--dataset", &o.dataset},
      {"--tuning", &o.tuning_in}, {"--out", &o.tuning_out},
      {"--passes", &o.passes}, {"--print-after", &o.print_after},
      {"--faults", &o.faults}, {"--run-policy", &o.run_policy},
      {"--tune-journal", &o.tune_journal}};
  const std::map<std::string, bool*> switches = {
      {"--list", &o.list}, {"--tune", &o.tune},
      {"--exhaustive", &o.exhaustive}, {"--print-ir", &o.print_ir},
      {"--tree", &o.print_tree}, {"--plan", &o.print_plan},
      {"--lint", &o.lint}, {"--simplify", &o.simplify},
      {"--no-fuse", &o.no_fuse}, {"--verify-each", &o.verify_each},
      {"--json", &o.json}, {"--stats", &o.stats}, {"--trace", &o.trace},
      {"--resume", &o.resume}};
  ArgReader args("incflatc", argc, argv);
  while (args.next()) {
    const std::string& a = args.arg();
    if (const auto v = values.find(a); v != values.end()) {
      *v->second = args.value();
    } else if (const auto b = switches.find(a); b != switches.end()) {
      *b->second = true;
    } else if (a == "--lint-json") {
      o.lint = o.lint_json = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      o.trace = true;
      o.trace_out = a.substr(std::string("--trace=").size());
      if (o.trace_out.empty()) return std::nullopt;
    } else if (a.rfind("--faults=", 0) == 0) {
      o.faults = a.substr(std::string("--faults=").size());
    } else if (a == "--fault-seed") {
      o.fault_seed = args.seed();
      o.fault_seed_set = true;
    } else {
      std::cerr << "incflatc: unknown option '" << a << "'\n";
      return std::nullopt;
    }
  }
  // Environment hooks (explicit flags win): INCFLAT_FAULTS carries a fault
  // spec into runs that cannot edit the command line (CI soak, benches).
  if (o.faults.empty()) {
    if (const char* env = std::getenv("INCFLAT_FAULTS")) o.faults = env;
  }
  if (!o.fault_seed_set) {
    if (const auto seed = args.env_seed("INCFLAT_FAULT_SEED")) {
      o.fault_seed = *seed;
      o.fault_seed_set = true;
    }
  }
  return o;
}

/// Enables the trace layer for the duration of run() and flushes the
/// requested sinks (summary table to stderr, Chrome JSON to a file) on the
/// way out, also on early returns.
struct TraceSinks {
  const Options& o;
  explicit TraceSinks(const Options& opts) : o(opts) {
    if (o.trace || o.stats) {
      trace::reset();
      trace::set_enabled(true);
    }
  }
  ~TraceSinks() {
    if (o.stats) trace::print_summary(std::cerr);
    if (o.trace) {
      try {
        trace::write_chrome(o.trace_out);
        std::cerr << "wrote trace to " << o.trace_out << "\n";
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
      }
    }
  }
};

int run(const Options& o) {
  TraceSinks sinks(o);
  if (o.list) {
    Table t({"benchmark", "datasets", "training sets", "reference"});
    for (const auto& name : all_benchmark_names()) {
      Benchmark b = get_benchmark(name);
      t.row({b.name,
             join_map(b.datasets, ",",
                      [](const BenchDataset& d) { return d.name; }),
             join_map(b.tuning, ",",
                      [](const BenchDataset& d) { return d.name; }),
             b.reference_name.empty() ? "-" : b.reference_name});
    }
    t.print(std::cout);
    return 0;
  }

  if (o.benchmark.empty()) return usage();
  Benchmark b = get_benchmark(o.benchmark);

  const FlattenMode mode = mode_from_name(o.mode);

  DeviceProfile dev = o.device == "vega64" ? device_vega64() : device_k40();
  if (o.device != "vega64" && o.device != "k40") return usage();

  CompileOptions copts;
  copts.flatten.fuse =
      !o.no_fuse && (mode != FlattenMode::Moderate || b.fuse_moderate);
  copts.verify_each = o.verify_each;
  copts.simplify = o.simplify;
  copts.limits = analysis::limits_for(dev);
  for (size_t pos = 0; pos < o.passes.size();) {
    size_t comma = o.passes.find(',', pos);
    if (comma == std::string::npos) comma = o.passes.size();
    if (comma > pos) copts.passes.push_back(o.passes.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (!o.print_after.empty()) {
    copts.after_pass = [&o](const std::string& pass, const Program& prog) {
      if (o.print_after == "all" || o.print_after == pass) {
        std::cout << "-- after " << pass << " --\n" << pretty(prog);
      }
    };
  }
  Compiled c = compile(b.program, mode, copts);
  const FlattenResult& fr = c.flat;

  if (o.print_ir) {
    std::cout << pretty(fr.program);
  }
  if (o.print_tree) {
    std::cout << "branching tree (" << fr.thresholds.size()
              << " thresholds):\n"
              << fr.thresholds.tree_str();
  }
  if (o.print_plan) {
    if (c.plan) {
      std::cout << plan_stats(*c.plan) << "\n";
    } else {
      std::cout << "no kernel plan (pipeline did not run plan-build)\n";
    }
  }

  if (o.lint) {
    analysis::LintOptions lopts;
    lopts.limits = analysis::limits_for(dev);
    lopts.device_name = dev.name;
    const std::vector<Diagnostic> findings =
        analysis::lint_program(fr.program, lopts);
    if (o.lint_json || o.json) {
      Json j = Json::object();
      j.set("benchmark", b.name)
          .set("mode", mode_name(mode))
          .set("device", dev.name)
          .set("errors", count_at_least(findings, Severity::Error))
          .set("warnings", count_at_least(findings, Severity::Warning))
          .set("diagnostics", diagnostics_json(findings));
      std::cout << j.str() << "\n";
    } else if (findings.empty()) {
      std::cout << b.name << ": lint clean on " << dev.name << "\n";
    } else {
      std::cout << diagnostics_str(findings);
      std::cout << b.name << ": " << findings.size() << " finding(s), "
                << count_at_least(findings, Severity::Error)
                << " error(s) on " << dev.name << "\n";
    }
    if (count_at_least(findings, Severity::Error) > 0) return 1;
  }

  ThresholdEnv thresholds;
  if (!o.tuning_in.empty()) thresholds = load_tuning(o.tuning_in);

  // Fault injection: spec parse errors are input errors (exit 3, via the
  // IoError handler in main), like an unreadable tuning file.
  const FaultSpec fspec = parse_fault_spec(o.faults);
  const RunPolicy policy = parse_run_policy(o.run_policy);

  // compile() builds the plan unless --passes leaves out plan-build; then it
  // is built here, once, for tuning and simulation to share.
  if (!c.plan && (o.tune || !o.dataset.empty())) c.plan = plan_of(c);

  if (o.tune) {
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    TunerOptions topts;
    // Fault-injected tuning: the spec's noise amplitude perturbs every
    // measurement and its launch rate makes individual measurements fail;
    // the tuner answers with median-of-k re-measurement.
    topts.noise = fspec.noise;
    topts.failure_rate = fspec.launch_rate();
    if (o.fault_seed_set) topts.measure_seed = o.fault_seed;
    topts.journal = o.tune_journal;
    topts.resume = o.resume;
    TuningReport rep = o.exhaustive ? exhaustive_tune(dev, *c.plan, train)
                                    : autotune(dev, *c.plan, train, topts);
    thresholds = rep.best;
    std::cout << "tuned on " << train.size() << " datasets via kernel plan: "
              << fmt_us(rep.default_cost_us) << " -> "
              << fmt_us(rep.best_cost_us) << " (" << rep.evaluations
              << " evaluations, " << rep.dedup_hits << " dedup hits)\n";
    if (rep.journal_replayed > 0 || rep.infeasible > 0 || rep.early_stopped) {
      std::cout << "  " << rep.journal_replayed << " replayed from journal, "
                << rep.infeasible << " infeasible"
                << (rep.early_stopped ? ", stopped on budget" : "") << "\n";
    }
    if (!o.tuning_out.empty()) {
      save_tuning(o.tuning_out, thresholds);
      std::cout << "wrote " << o.tuning_out << "\n";
    }
  }

  if (!o.dataset.empty()) {
    const BenchDataset* ds = nullptr;
    for (const auto& d : b.datasets) {
      if (d.name == o.dataset) ds = &d;
    }
    for (const auto& d : b.tuning) {
      if (d.name == o.dataset) ds = &d;
    }
    if (!ds) {
      std::cerr << "unknown dataset " << o.dataset << "\n";
      return 2;
    }

    if (fspec.faults_launches()) {
      // Fault-injected execution: retries and graceful degradation over the
      // guard tree; an unrecoverable run reports a structured diagnostic
      // and exits 1 instead of throwing.
      FaultPlan fplan(fspec, o.fault_seed);
      const RunOutcome out =
          run_with_faults(dev, c, ds->sizes, thresholds, fplan, policy);
      if (o.json) {
        Json j = Json::object();
        j.set("benchmark", b.name)
            .set("mode", mode_name(mode))
            .set("device", dev.name)
            .set("dataset", ds->name)
            .set("faults_spec", fault_spec_str(fspec))
            .set("fault_seed", static_cast<int64_t>(o.fault_seed))
            .set("ok", out.ok)
            .set("time_us", out.time_us)
            .set("overhead_us", out.overhead_us)
            .set("faults", out.faults)
            .set("retries", out.retries)
            .set("degradations", out.degradations);
        Json degraded = Json::array();
        for (const auto& name : out.degraded) degraded.push(Json(name));
        j.set("degraded", std::move(degraded));
        Json events = Json::array();
        for (const auto& e : out.events) {
          Json je = Json::object()
                        .set("launch", e.launch)
                        .set("kernel", e.kernel)
                        .set("fault", fault_kind_name(e.kind))
                        .set("attempt", e.attempt)
                        .set("action", e.action);
          if (!e.threshold.empty()) je.set("threshold", e.threshold);
          events.push(std::move(je));
        }
        j.set("events", std::move(events));
        if (out.error) j.set("error", out.error->to_json());
        std::cout << j.str() << "\n";
      } else {
        std::cout << b.name << "/" << ds->name << " on " << dev.name
                  << " (faults " << fault_spec_str(fspec) << ", seed 0x"
                  << std::hex << o.fault_seed << std::dec
                  << "): " << outcome_str(out) << "\n";
        if (out.error) std::cout << "  " << out.error->str() << "\n";
      }
      return out.ok ? 0 : 1;
    }

    const RunEstimate est = simulate(dev, c, ds->sizes, thresholds);
    if (o.json) {
      Json j = Json::object();
      j.set("benchmark", b.name)
          .set("mode", mode_name(mode))
          .set("device", dev.name)
          .set("dataset", ds->name)
          .set("time_us", est.time_us)
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
      std::cout << j.str() << "\n";
    } else {
      std::cout << b.name << "/" << ds->name << " on " << dev.name << " ("
                << mode_name(mode) << "): " << estimate_str(est) << "\n";
      for (const auto& [name, taken] : est.guards) {
        std::cout << "  guard " << name << " -> " << (taken ? "T" : "F")
                  << "\n";
      }
      for (const auto& k : est.kernels) {
        std::cout << "  kernel " << k.what << "  " << fmt_us(k.time_us)
                  << "  threads=" << k.threads
                  << (k.used_local_fallback ? "  [local-mem fallback]" : "")
                  << "\n";
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace incflat

int main(int argc, char** argv) {
  auto opts = incflat::parse(argc, argv);
  if (!opts) return incflat::usage();
  try {
    return incflat::run(*opts);
  } catch (const incflat::VerifyError& e) {
    // Verification failures carry every finding, not just the first; print
    // the full structured list so one run surfaces all violations.
    if (opts->json) {
      std::cerr << incflat::diagnostics_json(e.diagnostics()).str() << "\n";
    } else {
      std::cerr << "error: verification failed ("
                << e.diagnostics().size() << " finding(s)):\n"
                << incflat::diagnostics_str(e.diagnostics());
    }
    return 1;
  } catch (const incflat::IoError& e) {
    // Missing, unreadable or malformed input (tuning files, journals,
    // fault/policy specs): structured diagnostic, distinct exit code.
    incflat::Diagnostic d;
    d.check = "input";
    d.context = "cli";
    d.message = e.what();
    if (opts->json) {
      std::cerr << incflat::diagnostics_json({d}).str() << "\n";
    } else {
      std::cerr << d.str() << "\n";
    }
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
