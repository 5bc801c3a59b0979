// soak_faults — fault-injection soak for CI.
//
//   soak_faults [SPEC] [SEEDS]
//   soak_faults chaos              heavy network-chaos soak only
//
// Runs every benchsuite program on both device profiles under a mixed
// fault spec (default all=0.01, i.e. 1% of launches fault) across SEEDS
// seeds (default 10; 0..2147483647), checking the robustness contract end
// to end:
//
//   * no run crashes or throws: every outcome is either ok or a structured
//     fault-unrecoverable Diagnostic;
//   * every degraded run is value-correct: executing the interpreter under
//     the outcome's effective thresholds reproduces the source program's
//     values bit-for-bit (the paper's semantics-preservation property);
//   * the accounting adds up: overheads are non-negative and event counts
//     match the fault/retry/degradation tallies;
//   * a noisy autotuning smoke on each program completes, journals, and
//     resumes to a bit-identical report.
//
// A serve phase drives a fault-injected ServerCore from concurrent threads
// — the daemon minus its sockets — with tracing on.  Every acquisition
// checks the two-level lock rule (src/support/sync.h), which aborts the
// soak on the first violation.
//
// A network-chaos phase runs a real ServeSocket under deterministic
// socket-level chaos (dribbled reads, partial writes, stalls, mid-stream
// resets, accept drops) with admission limits and per-request deadlines on,
// driven by reconnecting clients.  Contracts: no client ever sees a protocol
// violation, every response correlates to the request that asked for it
// (in-order, exactly-once), shed / deadline-expired outcomes are structured
// and retriable, a fresh client still gets a ping answered after the storm
// (nothing wedged), and a requested drain completes clean within its bound.
// Whether the storm sheds or expires a job is left to timing, so a chaos-free
// socket on the same core then expires one queued request for certain: the
// scheduler's drop callback, which answers it, is the one path that takes
// the done queue's lock under the scheduler's.
// `soak_faults chaos` runs a heavier version of just this phase.
//
// Exit code 0 only when every check passes — CI runs this under
// ASan+UBSan, so memory errors in the fault paths also fail the job.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/gpusim/faults.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

struct Tally {
  int runs = 0;
  int faulted = 0;
  int degraded = 0;
  int unrecoverable = 0;
  int failures = 0;  // contract violations (crashes the job)
};

void check(Tally& t, bool ok, const std::string& what) {
  if (ok) return;
  ++t.failures;
  std::cerr << "FAIL: " << what << "\n";
}

void soak_one(Tally& t, const Benchmark& b, const Compiled& c,
              const DeviceProfile& dev, const Values& want,
              const std::vector<Value>& inputs, const FaultSpec& spec,
              const ThresholdEnv& thresholds, uint64_t seed) {
  FaultPlan faults(spec, seed);
  RunOutcome out;
  try {
    out = run_with_faults(dev, c, b.test_sizes, thresholds, faults);
  } catch (const std::exception& e) {
    check(t, false,
          b.name + "/" + dev.name + " seed " + std::to_string(seed) +
              ": run_with_faults threw: " + e.what());
    return;
  }
  ++t.runs;
  if (out.faults > 0) ++t.faulted;
  if (out.degradations > 0) ++t.degraded;

  const std::string tag =
      b.name + "/" + dev.name + " seed " + std::to_string(seed);
  if (!out.ok) {
    ++t.unrecoverable;
    check(t, out.error.has_value(), tag + ": failed without a diagnostic");
    return;
  }
  check(t, !out.error.has_value(), tag + ": ok run carries an error");
  check(t, out.overhead_us >= 0, tag + ": negative fault overhead");
  check(t, out.time_us >= out.estimate.time_us - 1e-9,
        tag + ": total time below the fault-free estimate");
  check(t, static_cast<int>(out.degraded.size()) == out.degradations,
        tag + ": degradation tally does not match the degraded list");

  // Value correctness of the (possibly degraded) run: the interpreter under
  // the outcome's effective thresholds must reproduce the source values
  // bit-for-bit.
  Values got = execute(dev, c, b.test_sizes, out.thresholds, inputs);
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].approx_equal(want[i], 0);
  }
  check(t, same, tag + ": degraded run is not value-identical to the source");
}

/// Noisy, journaled tuning completes and resumes bit-identically.
void soak_tuning(Tally& t, const Benchmark& b, const Compiled& c,
                 const DeviceProfile& dev, const FaultSpec& spec,
                 uint64_t seed) {
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  TunerOptions topts;
  topts.max_trials = 60;
  topts.noise = spec.noise > 0 ? spec.noise : 0.05;
  topts.failure_rate = spec.launch_rate();
  topts.measure_seed = seed;
  const std::string journal =
      "/tmp/incflat_soak_" + b.name + "_" + dev.name + ".journal";
  topts.journal = journal;
  const std::string tag = b.name + "/" + dev.name + " tuning";
  try {
    const TuningReport first = autotune(dev, *c.plan, train, topts);
    topts.resume = true;
    const TuningReport again = autotune(dev, *c.plan, train, topts);
    check(t, again.best_cost_us == first.best_cost_us &&
                 again.best.values == first.best.values &&
                 again.trials == first.trials &&
                 again.evaluations == first.evaluations,
          tag + ": resumed report differs from the original");
    check(t, again.journal_replayed == first.evaluations,
          tag + ": resume did not replay every evaluation");
  } catch (const std::exception& e) {
    check(t, false, tag + ": threw: " + std::string(e.what()));
  }
  std::remove(journal.c_str());
}

/// Concurrent daemon-shape soak: several threads hammer one fault-injected
/// ServerCore with run/compile/stats traffic.  The point is lock coverage —
/// the plan cache, the scheduler and the stats paths all interleave here,
/// and the lock rule checks every acquisition.
void soak_serve(Tally& t, const std::string& spec_str) {
  // Tracing on: the plan cache and the scheduler take trace.state under
  // their own locks only while the trace layer is enabled, and the soak
  // should cover those paths.
  trace::set_enabled(true);
  serve::ServeOptions o;
  o.workers = 4;
  o.faults = spec_str;
  serve::ServerCore core(o);
  const std::vector<std::string> names = all_benchmark_names();
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kReqs = 40;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kReqs; ++i) {
        const Benchmark b = get_benchmark(names[(w + i) % names.size()]);
        Json req = Json::object();
        if (i % 13 == 0) {
          req.set("op", "stats");
        } else if (i % 7 == 0) {
          req.set("op", "compile");
          req.set("benchmark", b.name);
        } else {
          req.set("op", "run");
          req.set("benchmark", b.name);
          req.set("dataset", b.datasets.empty() ? std::string("test")
                                                : b.datasets[0].name);
        }
        const Json resp = core.handle(req);
        // Injected run faults may answer ok=false (structured); a missing
        // "ok" field means the core broke protocol.
        if (resp.find("ok") == nullptr) ++bad;
      }
    });
  }
  for (auto& th : threads) th.join();
  trace::set_enabled(false);
  trace::reset();
  check(t, bad.load() == 0, "serve soak: response without an ok field");
  t.runs += kThreads * kReqs;
}

/// Expire one queued request on a chaos-free socket over `core`: gate every
/// scheduler worker, send a cold compile with a 20 ms deadline, and open the
/// gate 40 ms after its submit.  The next worker scan drops the job as
/// Expired, and the drop callback answers it "timeout".
void expire_in_queue(Tally& t, serve::ServerCore& core) {
  serve::Endpoint ep;
  ep.kind = serve::Endpoint::Kind::Unix;
  ep.path = "/tmp/incflat_soak_expire_" + std::to_string(::getpid()) + ".sock";
  serve::ServeSocket sock(core, ep);
  std::thread loop([&] { sock.serve_forever(); });

  serve::JobScheduler& sched = core.scheduler();
  std::atomic<bool> open{false};
  std::atomic<int> gated{sched.width()};
  for (int i = 0; i < sched.width(); ++i) {
    sched.submit(
        [&] {
          while (!open.load()) std::this_thread::yield();
          --gated;
        },
        serve::JobPriority::High);
  }
  const serve::SchedulerStats before = sched.stats();
  std::atomic<bool> called{false};
  std::thread opener([&] {
    while (sched.stats().submitted == before.submitted && !called.load())
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    open.store(true);
  });

  // Not a request the storm makes, so it is not resident: it is scheduled.
  Json req = Json::object();
  req.set("op", "compile");
  req.set("benchmark", "matmul");
  req.set("mode", "full");
  req.set("device", "vega64");
  req.set("deadline_ms", 20.0);
  std::string code = "(none)";
  try {
    serve::ServeClient cli(ep, 10000);
    const Json resp = cli.call(req);
    if (const Json* c = resp.find("code"); c && c->is_string())
      code = c->as_string();
  } catch (const std::exception& e) {
    code = e.what();
  }
  called.store(true);
  opener.join();
  while (gated.load() > 0) std::this_thread::yield();
  sock.stop();
  loop.join();
  std::remove(ep.path.c_str());

  check(t, code == "timeout",
        "chaos soak: a request expired in the queue answered '" + code +
            "', not 'timeout'");
  check(t, sched.stats().expired > before.expired,
        "chaos soak: the scheduler expired no job");
}

/// Network-chaos soak: a real ServeSocket under deterministic socket-level
/// chaos, admission limits and per-request deadlines, driven by
/// reconnecting clients.  See the file comment for the contracts checked.
void soak_chaos(Tally& t, bool heavy) {
  // A chaos reset severs connections mid-write on both sides; that must be
  // an EPIPE errno in this process, never a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);

  serve::ServeOptions o;
  o.workers = 2;
  o.queue_cap = 64;
  serve::ServerCore core(o);
  serve::SocketOptions so;
  so.max_conns = 64;
  so.max_inflight_per_conn = 8;
  so.drain_ms = 5000;
  so.chaos = serve::parse_net_chaos(heavy ? "all=0.12" : "all=0.05");
  so.chaos_seed = 0xc4a05;
  serve::Endpoint ep;
  ep.kind = serve::Endpoint::Kind::Unix;
  ep.path = "/tmp/incflat_soak_chaos_" + std::to_string(::getpid()) + ".sock";
  serve::ServeSocket sock(core, ep, so);
  std::atomic<bool> loop_done{false};
  std::thread loop([&] {
    sock.serve_forever();
    loop_done.store(true);
  });

  const std::vector<std::string> names = all_benchmark_names();
  const int kThreads = heavy ? 8 : 4;
  const int kReqs = heavy ? 60 : 25;
  std::atomic<int> protocol_bad{0};   // framing/parse/shape violations
  std::atomic<int> id_mismatch{0};    // response for the wrong request
  std::atomic<int> bad_retriable{0};  // shed/timeout without retriable:true
  std::atomic<int> answered{0}, shed{0}, expired{0}, resets{0};
  std::atomic<int> unanswered{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(kThreads));
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::unique_ptr<serve::ServeClient> cli;
      for (int i = 0; i < kReqs; ++i) {
        const Benchmark b = get_benchmark(names[(w + i) % names.size()]);
        const std::string rid =
            std::to_string(w) + "-" + std::to_string(i);
        Json req = Json::object();
        if (i % 9 == 0) {
          req.set("op", "stats");
        } else {
          req.set("op", "run");
          req.set("benchmark", b.name);
          req.set("dataset", b.datasets.empty() ? std::string("test")
                                                : b.datasets[0].name);
        }
        req.set("id", rid);
        // Every third request carries a deadline; in the heavy soak it is
        // tight enough that some expire behind queued compiles, so the
        // kTimeout path sees real traffic.
        if (i % 3 == 0) req.set("deadline_ms", heavy ? 1.0 : 200.0);

        bool got = false;
        for (int attempt = 0; attempt < 6 && !got; ++attempt) {
          if (!cli) {
            try {
              cli = std::make_unique<serve::ServeClient>(ep, 10000);
            } catch (const std::exception&) {
              ++resets;
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              continue;
            }
          }
          try {
            const Json resp = cli->call(req);
            got = true;
            ++answered;
            // Exactly-once, in order: the one response a synchronous call
            // yields must correlate to the request that asked for it —
            // a stray duplicate or dropped frame shows up here as a
            // stream-position mismatch.
            const Json* gid = resp.find("id");
            if (!gid || !gid->is_string() || gid->as_string() != rid)
              ++id_mismatch;
            const Json* ok = resp.find("ok");
            if (!ok || !ok->is_bool()) {
              ++protocol_bad;
              continue;
            }
            if (!ok->as_bool()) {
              const Json* cj = resp.find("code");
              const std::string cs =
                  cj && cj->is_string() ? cj->as_string() : "";
              if (cs == "timeout" || cs == "cancelled") {
                ++expired;
                if (!serve::is_retriable(resp)) ++bad_retriable;
              } else if (cs == "overloaded" || cs == "draining") {
                ++shed;
                if (!serve::is_retriable(resp)) ++bad_retriable;
              }
              // Other ok=false (injected run faults, unknown benchmark)
              // is ordinary structured failure — not chaos's business.
            }
          } catch (const serve::ProtocolError& e) {
            std::cerr << "chaos soak: framing violation: " << e.what()
                      << "\n";
            ++protocol_bad;
            cli.reset();
          } catch (const JsonParseError& e) {
            std::cerr << "chaos soak: unparseable response: " << e.what()
                      << "\n";
            ++protocol_bad;
            cli.reset();
          } catch (const std::exception&) {
            // IoError: chaos reset / timeout — reconnect and resend.
            ++resets;
            cli.reset();
          }
        }
        if (!got) ++unanswered;
      }
    });
  }
  for (auto& th : threads) th.join();

  // No wedge: a fresh connection must still get a ping answered after the
  // storm (chaos can still drop it — retry a few times).
  bool ping_ok = false;
  for (int attempt = 0; attempt < 8 && !ping_ok; ++attempt) {
    try {
      serve::ServeClient fresh(ep, 2000);
      Json ping = Json::object();
      ping.set("op", "ping");
      const Json resp = fresh.call(ping);
      const Json* ok = resp.find("ok");
      ping_ok = ok && ok->is_bool() && ok->as_bool();
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  check(t, ping_ok, "chaos soak: daemon wedged — ping unanswered after the "
                    "storm");

  // Graceful drain: every client is gone, so the drain must complete clean
  // well inside its bound.
  sock.request_drain();
  const auto bound =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!loop_done.load() && std::chrono::steady_clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!loop_done.load()) {
    check(t, false, "chaos soak: drain wedged — loop did not exit; forcing");
    sock.stop();
  }
  loop.join();
  const serve::DrainStats& ds = sock.drain_stats();
  check(t, ds.requested, "chaos soak: drain request was never observed");
  check(t, ds.clean && ds.forced_conns == 0,
        "chaos soak: drain was not clean (" +
            std::to_string(ds.forced_conns) + " forced)");
  expire_in_queue(t, core);

  const int total_sent = kThreads * kReqs;
  check(t, protocol_bad.load() == 0,
        "chaos soak: protocol violations under chaos");
  check(t, id_mismatch.load() == 0,
        "chaos soak: a response correlated to the wrong request");
  check(t, bad_retriable.load() == 0,
        "chaos soak: shed/deadline response not marked retriable");
  // Tolerate a tail of requests that exhausted their reconnect budget, but
  // the vast majority must land or the soak is vacuous.
  check(t, answered.load() >= (total_sent * 8) / 10,
        "chaos soak: too few requests answered (" +
            std::to_string(answered.load()) + "/" +
            std::to_string(total_sent) + ")");
  const serve::NetChaos::Counts& cc = sock.chaos_counts();
  check(t, cc.total() > 0, "chaos soak: chaos never fired (vacuous)");
  std::cout << "chaos soak: " << answered.load() << "/" << total_sent
            << " answered (" << shed.load() << " shed, " << expired.load()
            << " deadline-expired, " << resets.load() << " resets, "
            << unanswered.load() << " unanswered), chaos fired "
            << cc.total() << " (" << cc.dribbles << " dribble, "
            << cc.partial_writes << " partial-write, " << cc.stalls
            << " stall, " << cc.resets << " reset, " << cc.accept_fails
            << " accept-fail), drain "
            << (ds.clean ? "clean" : "FORCED") << "\n";
  t.runs += answered.load();
  std::remove(ep.path.c_str());
}

/// `soak_faults chaos`: the heavy network-chaos phase alone.
int chaos_soak() {
  Tally t;
  soak_chaos(t, /*heavy=*/true);
  std::cout << "chaos soak: " << t.failures << " contract failure(s)\n";
  return t.failures == 0 ? 0 : 1;
}

int soak(const std::string& spec_str, int n_seeds) {
  const FaultSpec spec = parse_fault_spec(spec_str);
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};
  Tally t;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    Rng in_rng(0xabc);
    const std::vector<Value> inputs = b.gen_inputs(in_rng, b.test_sizes);
    const Values want = execute_source(c, b.test_sizes, inputs);
    // Two starting assignments: threshold 1 turns every guard on at the
    // small interpreter sizes (the run starts most-parallel, so a
    // persistent fault has the whole degradation chain below it); the
    // paper-default 2^15 mostly selects the sequentialised/flattened
    // versions, whose schedules launch many more kernels.
    ThresholdEnv all_on;
    all_on.default_threshold = 1;
    const std::vector<ThresholdEnv> envs{all_on, ThresholdEnv{}};
    for (const auto& dev : devices) {
      for (int s = 0; s < n_seeds; ++s) {
        for (size_t e = 0; e < envs.size(); ++e) {
          // Mix the run identity into the seed: short schedules only ever
          // consume the stream's first draws, so reusing seeds across
          // benchmarks would sample the same handful of fault decisions
          // everywhere.
          const std::string id = b.name + "/" + dev.name + "#" +
                                 std::to_string(e) + "#" + std::to_string(s);
          soak_one(t, b, c, dev, want, inputs, spec, envs[e],
                   journal_hash(id.data(), id.size()));
        }
      }
      soak_tuning(t, b, c, dev, spec, 0xbeef + static_cast<uint64_t>(0));
    }
  }
  soak_serve(t, spec_str);
  soak_chaos(t, /*heavy=*/false);
  std::cout << "soak: " << t.runs << " runs (" << t.faulted << " with faults, "
            << t.degraded << " degraded, " << t.unrecoverable
            << " unrecoverable-but-structured), spec "
            << fault_spec_str(spec) << ", " << t.failures
            << " contract failure(s)\n";
  return t.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace incflat

int main(int argc, char** argv) {
  const std::string spec = argc > 1 ? argv[1] : "all=0.01";
  const incflat::ArgReader args("soak_faults", argc, argv);
  int seeds = 10;
  if (argc > 2) {
    seeds = static_cast<int>(args.check(
        [&] { return incflat::read_int("SEEDS", argv[2], 0, INT_MAX); }));
  }
  try {
    if (spec == "chaos") return incflat::chaos_soak();
    return incflat::soak(spec, seeds);
  } catch (const std::exception& e) {
    std::cerr << "soak: fatal: " << e.what() << "\n";
    return 1;
  }
}
