#include "src/serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <sstream>
#include <utility>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/device.h"
#include "src/ir/print.h"
#include "src/support/error.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat::serve {

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

DeviceProfile device_from_name(const std::string& name) {
  if (name.empty() || name == "k40") return device_k40();
  if (name == "vega64") return device_vega64();
  if (name == "multicore") return device_multicore();
  throw CompilerError("unknown device '" + name +
                      "' (k40, vega64, multicore)");
}

/// Resident-byte estimate of a served entry.  Plans are in-memory object
/// graphs, not flat buffers, so this is an approximation — what matters for
/// the budget is that it is monotone in plan size and stable per key.
size_t approx_entry_bytes(const KernelPlan& p, bool has_memo) {
  size_t b = 4096;  // entry fixed cost (key, memo scaffolding)
  b += p.arena.size() * 48;
  b += p.kernels.size() * 256;
  b += p.nodes.size() * 64;
  b += p.guards.size() * 128;
  for (const auto& g : p.guards) b += g.threshold.size() + 32;
  // A run entry's memo keeps a per-shape dataset cache (one priced cost
  // row per arena node) plus the default schedule and estimate.
  if (has_memo) b += p.arena.size() * 16 + 1024;
  return b;
}

const std::string& req_string(const Json& req, const std::string& key) {
  const Json* v = req.find(key);
  if (!v || !v->is_string())
    throw CompilerError("request field '" + key + "' must be a string");
  return v->as_string();
}

std::string opt_string(const Json& req, const std::string& key,
                       const std::string& dflt) {
  const Json* v = req.find(key);
  if (!v) return dflt;
  if (!v->is_string())
    throw CompilerError("request field '" + key + "' must be a string");
  return v->as_string();
}

/// The dataset `name` of `b`: an evaluation dataset, else a tuning one.
const BenchDataset& find_dataset(const Benchmark& b, const std::string& name) {
  const BenchDataset* found = nullptr;
  for (const auto& d : b.datasets)
    if (d.name == name) found = &d;
  if (!found)
    for (const auto& d : b.tuning)
      if (d.name == name) found = &d;
  if (!found)
    throw CompilerError("benchmark '" + b.name + "' has no dataset '" + name +
                        "'");
  return *found;
}

/// The RequestStats field that counts `req`'s op; null for an op without
/// one (ping, shutdown, unknown or missing).
int64_t RequestStats::*op_tally(const Json& req) {
  const Json* op = req.find("op");
  if (!op || !op->is_string()) return nullptr;
  const std::string& s = op->as_string();
  if (s == "compile") return &RequestStats::compiles;
  if (s == "run") return &RequestStats::runs;
  if (s == "tune") return &RequestStats::tunes;
  if (s == "stats") return &RequestStats::stats_calls;
  return nullptr;
}

}  // namespace

/// The names a request keys its cache entry by, with their defaults.  Read
/// in the order the fields are checked, so a request with several bad
/// fields is answered about the first.
struct ServerCore::EntryNames {
  bool run;  // a run entry, keyed by dataset too
  std::string benchmark;
  std::string dataset;  // empty for a program entry
  std::string mode;
  std::string device;
  std::string program_key;  // "bench|mode|device"
  std::string key;          // program_key, plus "|dataset" for a run entry

  /// Throws CompilerError on a missing or non-string field; a run request
  /// also names its dataset.
  EntryNames(const Json& req, bool run)
      : run(run),
        benchmark(req_string(req, "benchmark")),
        dataset(run ? req_string(req, "dataset") : std::string()),
        mode(opt_string(req, "mode", "incremental")),
        device(opt_string(req, "device", "k40")),
        program_key(benchmark + "|" + mode + "|" + device),
        key(run ? program_key + "|" + dataset : program_key) {}
};

/// One cache entry: the compiled program's plan plus — for dataset-keyed
/// run entries — the dataset's RunMemo and fault seed.  Runs, tuning and
/// threshold-name checks all read the plan; the flattened program is
/// dropped once it has been hashed.  Everything but the run counter is set
/// before the entry is inserted and never changes after, so runs read the
/// entry without a lock.
struct ServerCore::ServedPlan : CacheValue {
  std::string key;
  std::string program_key;  // also names the entry's tuned thresholds
  uint64_t program_hash = 0;
  std::shared_ptr<const KernelPlan> plan;
  DeviceProfile dev;
  double compile_us = 0;    // cold cost; 0 when the plan was reused
  bool plan_reused = false; // run entry adopted the program entry's plan

  // Run-entry state.
  std::unique_ptr<const RunMemo> memo;
  uint64_t fault_seed = 0;
  std::atomic<uint64_t> runs{0};  // numbers the entry's requests
};

ServerCore::ServerCore(ServeOptions opts)
    : opts_(std::move(opts)),
      fspec_(parse_fault_spec(opts_.faults)),
      cache_(opts_.cache_bytes),
      sched_(opts_.workers, /*promote_after_ms=*/1000.0, opts_.queue_cap) {}

ServerCore::~ServerCore() = default;

JobPriority ServerCore::priority_for(const std::string& op) {
  if (op == "compile") return JobPriority::Normal;
  if (op == "tune") return JobPriority::Low;
  // run / stats / ping / shutdown: latency-sensitive client traffic.
  return JobPriority::High;
}

RequestStats ServerCore::request_stats() const {
  sync::MutexLock lk(stats_mu_);
  return rstats_;
}

std::string ServerCore::handle_text(const std::string& payload) {
  Json req;
  try {
    req = Json::parse(payload);
  } catch (const JsonParseError& e) {
    return reject(std::string("malformed request json: ") + e.what()).str(-1);
  }
  return handle(req).str(-1);
}

Json ServerCore::reject(const std::string& message) {
  {
    sync::MutexLock lk(stats_mu_);
    ++rstats_.total;
    ++rstats_.errors;
  }
  return error_response(code::kBadRequest, message);
}

Json ServerCore::handle(const Json& request, const CancelToken* cancel) {
  return answer(request, cancel, nullptr);
}

std::optional<Json> ServerCore::try_handle_cached(const Json& request,
                                                  const CancelToken* cancel) {
  const Json* opv = request.find("op");
  if (!opv || !opv->is_string()) return std::nullopt;
  const bool run = opv->as_string() == "run";
  if (!run && opv->as_string() != "compile") return std::nullopt;
  std::shared_ptr<ServedPlan> hit = probe(request, run);
  if (!hit) return std::nullopt;
  return answer(request, cancel, std::move(hit));
}

Json ServerCore::answer(const Json& request, const CancelToken* cancel,
                        std::shared_ptr<ServedPlan> hit) {
  const bool inlined = hit != nullptr;
  const bool expired = cancel && cancel->expired();
  Json resp;
  if (expired) {
    // The deadline passed before any work started (typically: the job sat
    // in the scheduler queue).  Answer without work and without counting a
    // cache hit.
    resp = retriable_error(code::kTimeout,
                           "deadline expired before the request ran");
  } else {
    try {
      resp = dispatch(request, cancel, std::move(hit));
    } catch (const JsonParseError& e) {
      resp = error_response(code::kBadRequest, e.what());
    } catch (const CompilerError& e) {
      resp = error_response(code::kBadRequest, e.what());
    } catch (const EvalError& e) {
      resp = error_response(code::kBadRequest, e.what());
    } catch (const std::exception& e) {
      resp = error_response(code::kInternal, e.what());
    }
  }
  echo_id(request, resp);
  // A request expired on arrival was never dispatched, so its op is not
  // counted; a "timeout" answer, whenever the deadline passed, is.
  int64_t RequestStats::*const op = expired ? nullptr : op_tally(request);
  const Json* ok = resp.find("ok");
  const bool failed = !ok || !ok->is_bool() || !ok->as_bool();
  const Json* c = resp.find("code");
  const bool timeout = c && c->is_string() && c->as_string() == code::kTimeout;
  if (timeout && trace::enabled()) trace::count("serve.deadline_expired");
  {
    sync::MutexLock lk(stats_mu_);
    ++rstats_.total;
    if (op) ++(rstats_.*op);
    if (failed) ++rstats_.errors;
    if (timeout) ++rstats_.deadline_expired;
    if (inlined) ++rstats_.inlined;
  }
  return resp;
}

Json ServerCore::dispatch(const Json& req, const CancelToken* cancel,
                          std::shared_ptr<ServedPlan> hit) {
  if (!req.is_object())
    return error_response(code::kBadRequest, "request must be a json object");
  const Json* opv = req.find("op");
  if (!opv || !opv->is_string())
    return error_response(code::kBadRequest, "missing string field 'op'");
  const std::string& op = opv->as_string();

  if (op == "compile") return do_compile(req, std::move(hit));
  if (op == "run") return do_run(req, cancel, std::move(hit));
  if (op == "tune") return do_tune(req, cancel);
  if (op == "stats") return do_stats();
  if (op == "ping") {
    Json r = Json::object();
    r.set("ok", true);
    r.set("pong", true);
    return r;
  }
  if (op == "shutdown") {
    // The core has no event loop to stop; the socket layer watches for this
    // op and winds down after writing the acknowledgement.
    Json r = Json::object();
    r.set("ok", true);
    r.set("shutdown", true);
    return r;
  }
  return error_response(code::kUnknownOp, "unknown op '" + op + "'");
}

std::shared_ptr<ServerCore::ServedPlan> ServerCore::lookup_or_compile(
    const EntryNames& names, bool* cached) {
  if (auto hit = cache_.find(names.key)) {
    *cached = true;
    return std::static_pointer_cast<ServedPlan>(hit);
  }
  *cached = false;

  auto sp = std::make_shared<ServedPlan>();
  sp->key = names.key;
  sp->program_key = names.program_key;
  // One get_benchmark per miss.  A run needs it first, for the dataset's
  // sizes; a compile needs it only to compile, after the device is known.
  Benchmark b;
  const BenchDataset* data = nullptr;
  if (names.run) {
    b = get_benchmark(names.benchmark);
    data = &find_dataset(b, names.dataset);
  }
  sp->dev = device_from_name(names.device);

  // A run miss first tries to adopt the program-level entry's plan — the
  // compile-once promise: a new dataset costs a memo, never a re-flatten.
  // The probe is uncounted (it is bookkeeping, not traffic).
  std::shared_ptr<ServedPlan> base;
  if (names.run)
    base = std::static_pointer_cast<ServedPlan>(
        cache_.find(names.program_key, false));
  if (base) {
    sp->plan = base->plan;
    sp->program_hash = base->program_hash;
    sp->plan_reused = true;
  } else {
    if (!names.run) b = get_benchmark(names.benchmark);
    const FlattenMode m = mode_from_name(names.mode);
    const double t0 = now_us();
    Compiled c;
    {
      trace::Span span("serve.compile", "serve");
      c = compile(b.program, m);
    }
    sp->compile_us = now_us() - t0;
    sp->plan = c.plan;
    const std::string canon = pretty(c.flat.program);
    sp->program_hash = journal_hash(canon.data(), canon.size());
    if (names.run) {
      // Also publish the program-level entry so future datasets reuse it.
      auto pe = std::make_shared<ServedPlan>();
      pe->key = names.program_key;
      pe->program_key = names.program_key;
      pe->dev = sp->dev;
      pe->plan = sp->plan;
      pe->program_hash = sp->program_hash;
      pe->compile_us = sp->compile_us;
      cache_.insert(names.program_key, pe,
                    approx_entry_bytes(*pe->plan, false));
    }
  }

  if (names.run) {
    sp->memo =
        std::make_unique<const RunMemo>(sp->dev, *sp->plan, data->sizes);
    // Per-entry fault seed, decorrelated across entries by a hash of the
    // program key and the dataset's sizes so two entries do not fault in
    // lockstep.
    const std::string seed_key =
        names.program_key + "|" +
        join_map(data->sizes, ",", [](const auto& kv) {
          return kv.first + "=" + std::to_string(kv.second);
        });
    sp->fault_seed =
        opts_.fault_seed ^ journal_hash(seed_key.data(), seed_key.size());
  }

  // Insert; on a compile race the first entry wins and we adopt it.
  auto winner =
      cache_.insert(names.key, sp, approx_entry_bytes(*sp->plan, names.run));
  return std::static_pointer_cast<ServedPlan>(winner);
}

std::shared_ptr<ServerCore::ServedPlan> ServerCore::probe(const Json& req,
                                                          bool run) {
  try {
    return std::static_pointer_cast<ServedPlan>(
        cache_.find(EntryNames(req, run).key, /*count=*/false));
  } catch (const CompilerError&) {
    return nullptr;  // a malformed field: handle() answers the error
  }
}

Json ServerCore::do_compile(const Json& req,
                            std::shared_ptr<ServedPlan> entry) {
  bool cached = entry != nullptr;
  if (cached) {
    cache_.count_hit();
  } else {
    const EntryNames names(req, /*run=*/false);
    mode_from_name(names.mode);  // validate before keying
    entry = lookup_or_compile(names, &cached);
  }

  Json r = Json::object();
  r.set("ok", true);
  r.set("cached", cached);
  r.set("key", entry->key);
  r.set("program_hash", hex64(entry->program_hash));
  r.set("compile_us", cached ? 0.0 : entry->compile_us);
  const KernelPlan& p = *entry->plan;
  r.set("kernels", p.kernels.size());
  r.set("guards", p.guards.size());
  r.set("thresholds", p.guards.size());
  r.set("legacy_fallback", p.legacy_fallback);
  return r;
}

Json ServerCore::do_run(const Json& req, const CancelToken* cancel,
                        std::shared_ptr<ServedPlan> entry) {
  bool cached = entry != nullptr;
  if (cached) {
    cache_.count_hit();
  } else {
    const EntryNames names(req, /*run=*/true);
    mode_from_name(names.mode);  // validate before keying
    entry = lookup_or_compile(names, &cached);
  }

  ThresholdEnv thr;
  if (const Json* tv = req.find("thresholds")) {
    if (!tv->is_object())
      throw CompilerError("'thresholds' must be an object");
    const auto& known = entry->plan->guards;
    for (const std::string& name : tv->keys()) {
      const bool listed =
          std::any_of(known.begin(), known.end(),
                      [&](const GuardInfo& g) { return g.threshold == name; });
      if (!listed)
        throw CompilerError("the program has no threshold '" + name + "'");
      const Json& v = tv->get(name);
      const std::optional<int64_t> t =
          v.is_number() ? exact_int(v.as_double(), INT64_MIN, INT64_MAX)
                        : std::nullopt;
      if (!t)
        throw CompilerError("threshold '" + name +
                            "' must be an integer in int64's range");
      thr.values[name] = *t;
    }
  } else if (const Json* tuned = req.find("tuned");
             tuned && tuned->is_bool() && tuned->as_bool()) {
    sync::MutexLock lk(tuned_mu_);
    auto it = tuned_.find(entry->program_key);
    if (it == tuned_.end())
      throw CompilerError("no tuned thresholds published for " +
                          entry->program_key + " (tune first)");
    thr.values = it->second;
  }

  // The request's own fault stream: the n-th run of an entry draws from
  // the entry seed mixed with n, whatever other requests run beside it.
  const uint64_t n = entry->runs.fetch_add(1, std::memory_order_relaxed);
  FaultPlan faults(fspec_, Rng(entry->fault_seed + n).next());
  RunPolicy policy;
  policy.cancel = cancel;
  RunOutcome out;
  {
    trace::Span span("serve.run", "serve");
    out = run_with_faults(*entry->memo, thr, faults, policy);
  }

  Json r;
  if (out.cancelled) {
    // Expired mid-execution: a scheduling outcome, answered retriable —
    // the request itself was fine, the daemon just ran out of its budget.
    r = retriable_error(code::kTimeout, "deadline expired during execution");
  } else {
    r = Json::object();
    r.set("ok", out.ok);
    r.set("time_us", out.time_us);
    r.set("overhead_us", out.overhead_us);
    r.set("estimate_us", out.estimate.time_us);
    r.set("kernel_launches", out.estimate.kernel_launches);
    if (out.faults > 0) {
      r.set("faults", out.faults);
      r.set("retries", out.retries);
      r.set("degradations", out.degradations);
    }
    if (!out.ok) {
      r.set("code", code::kRunFailed);
      r.set("error", out.error ? out.error->message : "run failed");
    }
  }
  r.set("cached", cached);
  if (entry->plan_reused && !cached) r.set("plan_cached", true);
  return r;
}

Json ServerCore::do_tune(const Json& req, const CancelToken* cancel) {
  const EntryNames names(req, /*run=*/false);
  bool cached = false;
  auto entry = lookup_or_compile(names, &cached);

  Benchmark b = get_benchmark(names.benchmark);
  std::vector<TuningDataset> train;
  train.reserve(b.tuning.size());
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  if (train.empty())
    throw CompilerError("benchmark '" + names.benchmark +
                        "' has no tuning datasets");

  TunerOptions topts;
  topts.max_trials = opts_.tune_trials;
  if (const Json* tv = req.find("trials")) {
    const std::optional<int64_t> t =
        tv->is_number() ? exact_int(tv->as_double(), 1, INT_MAX)
                        : std::nullopt;
    if (!t)
      throw CompilerError("'trials' must be an integer in [1, " +
                          std::to_string(INT_MAX) + "]");
    topts.max_trials = static_cast<int>(*t);
  }
  // Served tuning measures under the daemon's fault regime, so published
  // thresholds reflect the conditions runs will actually see.
  topts.noise = fspec_.noise;
  topts.measure_seed = opts_.fault_seed;
  if (cancel) {
    // Spend at most the request's remaining budget: the tuner's wall-clock
    // stop returns the incumbent gracefully, so a deadline-bounded tune
    // still publishes the best thresholds it found in time.
    const double left = cancel->remaining_ms();
    if (left < 1e17) {
      topts.budget_ms = std::max(1.0, left);
      if (topts.budget_ms < 1.5) {
        // Effectively nothing left; answer timeout instead of a 1ms farce.
        return retriable_error(code::kTimeout,
                               "deadline expired before tuning started");
      }
    }
  }

  TuningReport rep;
  {
    trace::Span span("serve.tune", "serve");
    rep = autotune(entry->dev, *entry->plan, train, topts);
  }

  {
    sync::MutexLock lk(tuned_mu_);
    tuned_[names.program_key] = rep.best.values;
  }

  Json thrj = Json::object();
  for (const auto& [name, v] : rep.best.values) thrj.set(name, v);
  Json r = Json::object();
  r.set("ok", true);
  r.set("cached", cached);
  r.set("thresholds", thrj);
  r.set("best_cost_us", rep.best_cost_us);
  r.set("default_cost_us", rep.default_cost_us);
  r.set("trials", rep.trials);
  r.set("evaluations", rep.evaluations);
  return r;
}

Json ServerCore::do_stats() {
  // answer() tallies this call after it returns, so the report uniformly
  // covers requests completed before it.
  const CacheStats cs = cache_.stats();
  const SchedulerStats ss = sched_.stats();
  const RequestStats rs = request_stats();

  Json cache = Json::object();
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("inserts", cs.inserts);
  cache.set("bytes", cs.bytes);
  cache.set("entries", cs.entries);
  cache.set("byte_budget", cache_.byte_budget());

  Json sched = Json::object();
  sched.set("submitted", ss.submitted);
  sched.set("executed", ss.executed);
  sched.set("failed", ss.failed);
  sched.set("cancelled", ss.cancelled);
  sched.set("expired", ss.expired);
  sched.set("shed", ss.shed);
  sched.set("queued", ss.queued);
  sched.set("running", ss.running);
  sched.set("max_queue_depth", ss.max_queue_depth);
  sched.set("workers", sched_.width());

  Json reqs = Json::object();
  reqs.set("total", rs.total);
  reqs.set("compiles", rs.compiles);
  reqs.set("runs", rs.runs);
  reqs.set("tunes", rs.tunes);
  reqs.set("stats", rs.stats_calls);
  reqs.set("errors", rs.errors);
  reqs.set("deadline_expired", rs.deadline_expired);
  reqs.set("inline", rs.inlined);

  Json r = Json::object();
  r.set("ok", true);
  r.set("cache", cache);
  r.set("scheduler", sched);
  r.set("requests", reqs);
  // Fold finished span events into aggregates: a traced daemon answering
  // stats periodically keeps its trace buffer bounded for months of uptime.
  r.set("spans_flushed", trace::flush_spans());
  return r;
}

}  // namespace incflat::serve
