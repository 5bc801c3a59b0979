// Transport-independent core of the compile-and-serve daemon.
//
// ServerCore::handle() answers one protocol request (src/serve/protocol.h)
// and is fully thread-safe: the socket layer (src/serve/net.h) calls it
// from JobScheduler workers, the serve bench and the tests call it from
// plain threads with no sockets at all — both exercise exactly the code
// the daemon runs.
//
// ServerCore::try_handle_cached() is the non-blocking fast path in front of
// it: a run or compile whose cache entry already exists is answered on the
// calling thread through the same op bodies; anything else returns nullopt
// with nothing counted.  The socket layer tries it on its loop thread
// before scheduling a request, so a warm request never pays the scheduler
// hop.
//
// Request flow:
//
//   compile  -> PlanCache lookup under (program, mode, device); miss
//               compiles via exec::compile() and inserts.  The response
//               reports `cached`, the flattened-program content hash, and
//               the cold compile cost, so clients (and the bench's 50x
//               cold-vs-warm gate) can see amortization happen.
//   run      -> lookup under (program, mode, device, dataset); a miss
//               reuses the program-level entry's plan when one exists (the
//               compile-once promise: a new dataset never re-flattens) and
//               builds the dataset's RunMemo (src/exec/runtime.h) once,
//               before inserting the entry.  The memo is immutable, so
//               concurrent runs against one entry need no lock: each
//               replays the memo's default-threshold schedule, or descends
//               the plan on the memo's cache for other thresholds.
//   tune     -> autotunes the program-level entry's plan (compiling it on a
//               miss, never rebuilding a resident one) on the program's
//               training datasets and publishes the thresholds; runs with
//               "tuned":true select them.  The socket layer queues tune
//               jobs at Low priority so they never starve run traffic.
//   stats    -> cache / request / scheduler counters, plus a trace-layer
//               span flush (trace::flush_spans) so a traced daemon's event
//               buffer stays bounded over months of uptime.
//
// Fault injection (ServeOptions::faults, also INCFLAT_FAULTS in incflatd)
// routes every run through the fault-tolerant executor with its own
// FaultPlan, seeded from the entry's seed and the entry's run count; an
// unrecoverable run answers ok=false/"run-failed" — a structured response,
// not a protocol error.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/gpusim/faults.h"
#include "src/serve/plan_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/scheduler.h"
#include "src/support/json.h"
#include "src/support/sync.h"

namespace incflat {
class CancelToken;  // src/exec/runtime.h
}

namespace incflat::serve {

struct ServeOptions {
  size_t cache_bytes = size_t{64} << 20;
  /// Scheduler width; <= 0 picks JobScheduler::pick_width's default.
  int workers = 0;
  /// Fault spec (parse_fault_spec syntax) applied to run execution.
  std::string faults;
  uint64_t fault_seed = 0xfa0175eedULL;
  /// Default trial budget of a `tune` request (overridable per request).
  int tune_trials = 64;
  /// Per-priority-class bound on the scheduler's waiting queue; a submit
  /// against a full class is shed (answered "overloaded", retriable).
  /// <= 0 = unbounded.
  int64_t queue_cap = 0;
};

/// Request tallies, reported by the stats op.
struct RequestStats {
  int64_t total = 0;
  int64_t compiles = 0;
  int64_t runs = 0;
  int64_t tunes = 0;
  int64_t stats_calls = 0;
  int64_t errors = 0;  // responses with ok=false
  /// Run and compile requests answered from a resident entry by
  /// try_handle_cached (the socket layer's loop thread), not scheduled.
  int64_t inlined = 0;
  /// Requests answered "timeout" because their end-to-end deadline expired
  /// (at entry, or mid-run via the CancelToken).
  /// Scheduler-queue expiries are counted by SchedulerStats::expired.
  int64_t deadline_expired = 0;
};

class ServerCore {
 public:
  explicit ServerCore(ServeOptions opts = {});
  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Answer one request.  Thread-safe; never throws (failures become
  /// ok=false responses).  `cancel` (optional, not owned, must outlive the
  /// call) carries the request's end-to-end deadline: an already-expired
  /// token answers "timeout" (retriable) without any work, and run/tune
  /// requests check it cooperatively mid-execution — between kernel
  /// launches inside the executor, and between tuner evaluations via the
  /// tuner's budget hook.
  Json handle(const Json& request, const CancelToken* cancel = nullptr);

  /// handle(), but only if answering takes no compile and no wait: a "run"
  /// or "compile" whose entry is already resident.  The entry is probed
  /// once without counting; only a request answered from it counts,
  /// exactly as handle() would count it (one cache hit, or — when `cancel`
  /// has already expired — a "timeout" with no hit), plus
  /// requests.inline.  Anything else returns nullopt with nothing counted,
  /// for the caller to hand to handle().  The answer comes from the probed
  /// entry, so an eviction racing the call can never turn it into a
  /// compile.
  std::optional<Json> try_handle_cached(const Json& request,
                                        const CancelToken* cancel = nullptr);

  /// Parse + handle + serialise (compact).  Malformed JSON answers a
  /// structured "bad-request" error; this never throws either.
  std::string handle_text(const std::string& payload);

  /// A "bad-request" answer given before dispatch (a payload that is not
  /// JSON, a malformed deadline_ms), counted in requests.total and errors
  /// like any failed request.
  Json reject(const std::string& message);

  /// Scheduler priority class for an op ("run"/"stats"/"ping"/"shutdown"
  /// High, "compile" Normal, "tune" Low): the socket layer's dispatch rule.
  static JobPriority priority_for(const std::string& op);

  PlanCache& cache() { return cache_; }
  JobScheduler& scheduler() { return sched_; }
  const ServeOptions& options() const { return opts_; }
  RequestStats request_stats() const EXCLUDES(stats_mu_);

 private:
  struct ServedPlan;
  struct EntryNames;

  /// handle()'s body: the deadline check, dispatch, error mapping and
  /// every request tally, taken under one serve.stats acquisition.  `hit`,
  /// when set, is the entry try_handle_cached probed.
  Json answer(const Json& req, const CancelToken* cancel,
              std::shared_ptr<ServedPlan> hit);
  Json dispatch(const Json& req, const CancelToken* cancel,
                std::shared_ptr<ServedPlan> hit);
  /// The compile and run ops.  `entry` null looks the entry up (compiling
  /// on a miss); set, it is a probed resident entry, counted as the hit.
  Json do_compile(const Json& req, std::shared_ptr<ServedPlan> entry);
  Json do_run(const Json& req, const CancelToken* cancel,
              std::shared_ptr<ServedPlan> entry);
  Json do_tune(const Json& req, const CancelToken* cancel);
  Json do_stats();

  /// Find or build the run or program entry `names` keys.
  std::shared_ptr<ServedPlan> lookup_or_compile(const EntryNames& names,
                                                bool* cached);

  /// The resident entry a run (`run`) or compile request names, found by
  /// an uncounted probe; null when it is not resident or a field is
  /// malformed.
  std::shared_ptr<ServedPlan> probe(const Json& req, bool run);

  ServeOptions opts_;
  FaultSpec fspec_;
  PlanCache cache_;

  /// Published tuned thresholds per program key ("tuned":true runs).
  sync::Mutex tuned_mu_{"serve.tuned"};
  std::map<std::string, std::map<std::string, int64_t>> tuned_
      GUARDED_BY(tuned_mu_);

  mutable sync::Mutex stats_mu_{"serve.stats"};
  RequestStats rstats_ GUARDED_BY(stats_mu_);

  /// Declared LAST on purpose: the scheduler's destructor joins workers
  /// whose jobs call handle(), which touches every member above — member
  /// destruction runs in reverse declaration order, so the join must come
  /// first.
  JobScheduler sched_;
};

}  // namespace incflat::serve
