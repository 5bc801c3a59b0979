// serve-hot: the daemon's code (ServerCore behind ServeSocket, as incflatd
// runs them) on a real unix socket, hosted in this process and driven by one
// generator thread over kConns connections: 21 (benchmark, evaluation
// dataset) keys, k40, incremental, zipf 1.1, a plan cache that holds every
// key.  Loads the socket, protocol, scheduler, cache hits and the
// speculative tier.  Each run has a closed loop (one outstanding request per
// connection) and an open loop at a fixed rate with pipelined frames, each
// request timed from when it was due.
//
// Traced runs add the churn probe: every benchmark x mode x device x dataset
// key, uniform, half the incremental runs with per-request threshold
// overrides, a cache budget below the working set.  It loads what serve-hot
// bypasses: cache misses, evictions, compiles under load.
//
// Requests are 90% run and 10% compile (no tune: the daemon's tune op tunes
// the source program, not the flattened one).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench/workloads.h"
#include "src/exec/runtime.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace incflat;
using incflat::serve::FrameReader;

namespace {

constexpr int kConns = 4;
constexpr size_t kPool = 8192;        // distinct requests, replayed cyclically
constexpr int kOverrideVariants = 4;  // threshold overrides per program
constexpr auto kDrain = std::chrono::seconds(10);  // bound on late answers
constexpr size_t kProbe = 2048;       // pool requests replayed in-process
// Longest open-loop sleep between due times.  (Busy-polling instead made
// the generator compete with the daemon for CPU: p99 rose threefold.)
constexpr auto kMaxSleep = std::chrono::milliseconds(1);

struct Program {
  const Benchmark* b = nullptr;
  FlattenMode mode = FlattenMode::Incremental;
  Compiled c;  // fresh in-process compile, the answers' reference
  std::vector<ThresholdEnv> variants;  // [0] = defaults
};

struct Key {
  size_t prog = 0;
  const Device* d = nullptr;
  const BenchDataset* ds = nullptr;
};

struct Request {
  std::string payload;
  std::string frame;
  bool run = true;
  size_t key = 0;
  size_t variant = 0;
};

/// Everything one setup builds: the key space, the request pool and the
/// expected answer of every (key, variant).  `churn` selects the churn
/// probe's configuration in build_inputs, Daemon and Generator.
struct Inputs {
  Suite suite;
  std::vector<Program> progs;
  std::vector<Key> keys;
  std::vector<std::vector<Estimate>> expect;  // [key][variant]
  std::vector<Request> pool;
};

Json thresholds_json(const ThresholdEnv& thr) {
  Json j = Json::object();
  for (const auto& [k, v] : thr.values) j.set(k, v);
  return j;
}

Json run_request(const Inputs& in, size_t key, size_t variant) {
  const Key& k = in.keys[key];
  const Program& p = in.progs[k.prog];
  Json req = Json::object();
  req.set("op", "run");
  req.set("benchmark", p.b->name);
  req.set("dataset", k.ds->name);
  req.set("mode", mode_name(p.mode));
  req.set("device", k.d->name);
  if (variant > 0) req.set("thresholds", thresholds_json(p.variants[variant]));
  return req;
}

std::unique_ptr<Inputs> build_inputs(const Config& cfg, bool churn,
                                     Result& r) {
  auto owned = std::make_unique<Inputs>();
  Inputs& in = *owned;
  in.suite = load_suite();
  const Suite& s = in.suite;
  Rng vrng(cfg.seed ^ 0x7e57ab1e5eedULL);
  const std::vector<FlattenMode> modes =
      churn ? s.modes : std::vector<FlattenMode>{FlattenMode::Incremental};
  for (const Benchmark& b : s.benches) {
    for (const FlattenMode m : modes) {
      Program p{&b, m, compile(b.program, m), {ThresholdEnv{}}};
      if (churn && m == FlattenMode::Incremental) {
        for (int v = 0; v < kOverrideVariants; ++v) {
          ThresholdEnv thr;
          for (const auto& ti : p.c.flat.thresholds.all())
            thr.values[ti.name] = int64_t{1} << vrng.uniform_int(0, 24);
          p.variants.push_back(thr);
        }
      }
      in.progs.push_back(std::move(p));
    }
  }
  for (size_t pi = 0; pi < in.progs.size(); ++pi) {
    const Benchmark& b = *in.progs[pi].b;
    for (const Device& d : s.devices) {
      if (!churn && d.name != "k40") continue;
      for (const auto* set : {&b.datasets, &b.tuning}) {
        if (!churn && set == &b.tuning) continue;
        for (const BenchDataset& ds : *set) in.keys.push_back({pi, &d, &ds});
      }
    }
  }

  const auto& golden = golden_estimates(cfg);
  for (const Key& k : in.keys) {
    const Program& p = in.progs[k.prog];
    std::vector<Estimate> ev;
    for (const ThresholdEnv& thr : p.variants) {
      const RunEstimate e =
          plan_estimate_run(*p.c.plan, k.d->profile, k.ds->sizes, thr);
      ev.push_back({e.time_us, e.kernel_launches});
    }
    const std::string gk =
        estimate_key(p.b->name, mode_name(p.mode), k.d->name, k.ds->name);
    auto g = golden.find(gk);
    r.check(g != golden.end() && g->second.estimate_us == ev[0].estimate_us &&
                g->second.launches == ev[0].launches,
            "in-process estimate differs from golden " + gk);
    in.expect.push_back(std::move(ev));
  }

  // Zipf(1.1) over key ranks in registry order for serve-hot; uniform for
  // the churn probe.
  std::vector<double> cdf(in.keys.size());
  double acc = 0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    acc += churn ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = acc;
  }
  Rng rng(cfg.seed);
  for (size_t i = 0; i < kPool; ++i) {
    const double u = rng.uniform() * acc;
    const size_t key = std::min(
        cdf.size() - 1,
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()));
    Request q;
    q.key = key;
    q.run = rng.uniform() < 0.9;
    const Program& p = in.progs[in.keys[key].prog];
    Json req;
    if (q.run) {
      if (p.variants.size() > 1 && rng.flip(0.5))
        q.variant = static_cast<size_t>(
            rng.uniform_int(1, static_cast<int64_t>(p.variants.size()) - 1));
      req = run_request(in, key, q.variant);
    } else {
      req = Json::object();
      req.set("op", "compile");
      req.set("benchmark", p.b->name);
      req.set("mode", mode_name(p.mode));
      req.set("device", in.keys[key].d->name);
    }
    req.set("id", i);
    q.payload = req.str(-1);
    q.frame = serve::encode_frame(q.payload);
    in.pool.push_back(std::move(q));
  }
  return owned;
}

/// Outcome tallies of answered requests.
struct Tally {
  int64_t runs = 0, spec = 0, batched = 0;
};

/// Check one answer against the reference; counts tier and batching.
bool check_answer(const Inputs& in, const Request& q, size_t id,
                  const std::string& payload, bool hot, Tally& t) {
  const Json resp = Json::parse(payload);
  const Json* ok = resp.find("ok");
  const Json* rid = resp.find("id");
  if (!ok || !ok->is_bool() || !ok->as_bool() || !rid ||
      static_cast<size_t>(rid->as_double()) != id)
    return false;
  const Program& p = in.progs[in.keys[q.key].prog];
  if (!q.run) {
    const Json* k = resp.find("kernels");
    const Json* cached = resp.find("cached");
    return k && static_cast<size_t>(k->as_double()) ==
                    p.c.plan->kernels.size() &&
           (!hot || (cached && cached->as_bool()));
  }
  ++t.runs;
  if (const Json* tier = resp.find("tier");
      tier && tier->as_string() == "specialized")
    ++t.spec;
  if (const Json* b = resp.find("batched"); b && b->as_bool()) ++t.batched;
  const Estimate& e = in.expect[q.key][q.variant];
  const Json* est = resp.find("estimate_us");
  const Json* launches = resp.find("kernel_launches");
  return est && launches && est->as_double() == e.estimate_us &&
         static_cast<int64_t>(launches->as_double()) == e.launches;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + strerror(errno));
  }
  const int fl = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  return fd;
}

/// One client connection of the generator: nonblocking, pipelined, answers
/// in request order.
struct Conn {
  int fd = -1;
  std::string out;
  size_t off = 0;
  FrameReader in;
  struct Pending {
    size_t id = 0;
    Clock::time_point due, sent;
  };
  std::deque<Pending> pending;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void flush() {
    while (off < out.size()) {
      const ssize_t w =
          ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw std::runtime_error("send: " + std::string(strerror(errno)));
      }
      off += static_cast<size_t>(w);
    }
    out.clear();
    off = 0;
  }
  void send(const std::string& frame, size_t id, Clock::time_point due) {
    out += frame;
    pending.push_back({id, due, Clock::now()});
    flush();
  }
  /// Read what is available; false on EOF.
  bool fill() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      throw std::runtime_error("recv: " + std::string(strerror(errno)));
    }
  }
};

/// The daemon as incflatd hosts it, on a unix socket in the run directory.
class Daemon {
 public:
  Daemon(const Config& cfg, bool churn, int rep)
      : path_(cfg.run_dir + "/serve-" + std::to_string(::getpid()) + "-" +
              std::to_string(rep) + ".sock"),
        core_(options(cfg, churn)),
        sock_(core_, serve::parse_endpoint("unix:" + path_)),
        loop_([this] {
          try {
            sock_.serve_forever();
          } catch (const std::exception& e) {
            // The generator then sees its connections close and fails the
            // run.
            std::fprintf(stderr, "perfbench: daemon loop: %s\n", e.what());
          }
        }) {}
  ~Daemon() {
    sock_.stop();
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& path() const { return path_; }
  serve::ServerCore& core() { return core_; }

 private:
  static serve::ServeOptions options(const Config& cfg, bool churn) {
    serve::ServeOptions o;
    o.workers = cfg.serve_workers;
    if (churn) o.cache_bytes = cfg.churn_cache_bytes;
    return o;
  }
  std::string path_;
  serve::ServerCore core_;
  serve::ServeSocket sock_;
  std::thread loop_;  // declared last: joins before the members it uses
};

/// The single-threaded load generator.
class Generator {
 public:
  Generator(const Inputs& in, const std::string& path, bool hot, Result& r)
      : in_(in), hot_(hot), r_(r) {
    for (auto& c : conns_) c.fd = connect_unix(path);
  }

  Tally tally;
  Samples rtt_us;   // closed-loop round trips
  Samples late_us;  // open-loop send lateness

  /// Closed loop for `seconds`: one outstanding request per connection.
  /// Each slice ends when the answers still in flight at its end are in;
  /// `before_slice(i)`, when given, runs before slice i with no request
  /// outstanding.
  std::vector<Slice> closed(double seconds,
                            const std::function<void(int)>& before_slice = {}) {
    std::vector<Slice> slices(kSlices);
    const auto slice_len = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / kSlices));
    for (int i = 0; i < kSlices; ++i) {
      if (before_slice) before_slice(i);
      Slice& sl = slices[static_cast<size_t>(i)];
      const auto t0 = Clock::now();
      const auto end = t0 + slice_len;
      for (auto& c : conns_) send_next(c, t0);
      pump(end + kDrain, [&](Conn& c, const Conn::Pending& p,
                             Clock::time_point now, bool ok) {
        const double us = us_between(p.sent, now);
        rtt_us.add(us);
        sl.ops += ok;
        sl.lat_us.add(us);
        sl.wall_s = us_between(t0, now) / 1e6;
        if (now < end) send_next(c, now);
      });
      fail_unanswered();
    }
    return slices;
  }

  /// Open loop at `rate` req/s for `seconds`; run latencies by due slice.
  std::vector<Slice> open(double rate, double seconds) {
    std::vector<Slice> slices(kSlices);
    const double slice_s = seconds / kSlices;
    const int64_t total = static_cast<int64_t>(rate * seconds);
    const auto t0 = Clock::now();
    auto due_of = [&](int64_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) /
                                                    rate));
    };
    int64_t next = 0;
    auto on_answer = [&](Conn&, const Conn::Pending& p, Clock::time_point now,
                         bool ok) {
      const double since_start =
          std::chrono::duration<double>(p.due - t0).count();
      Slice& s = slices[std::min<size_t>(
          kSlices - 1, static_cast<size_t>(since_start / slice_s))];
      s.ops += ok;
      if (in_.pool[p.id % kPool].run) s.lat_us.add(us_between(p.due, now));
    };
    while (next < total) {
      const auto now = Clock::now();
      while (next < total && due_of(next) <= now) {
        Conn& c = conns_[static_cast<size_t>(next % kConns)];
        const auto due = due_of(next);
        send_next(c, due);
        late_us.add(us_between(due, c.pending.back().sent));
        ++next;
      }
      const auto wake = next < total ? due_of(next) : now;
      poll_once(std::min(wake, now + kMaxSleep), on_answer);
    }
    for (Slice& s : slices) s.wall_s = slice_s;
    pump(Clock::now() + kDrain, on_answer);
    fail_unanswered();
    return slices;
  }

 private:
  using OnAnswer = std::function<void(Conn&, const Conn::Pending&,
                                      Clock::time_point, bool)>;

  void send_next(Conn& c, Clock::time_point due) {
    const size_t id = seq_++;
    c.send(in_.pool[id % kPool].frame, id, due);
  }

  /// Wait until `until` (or no request is outstanding) handling answers.
  void pump(Clock::time_point until, const OnAnswer& fn) {
    while (Clock::now() < until && outstanding() > 0) poll_once(until, fn);
  }

  void fail_unanswered() {
    for (auto& c : conns_) {
      for (const auto& p : c.pending)
        r_.op(false, "unanswered request " + std::to_string(p.id));
      c.pending.clear();
    }
  }

  size_t outstanding() const {
    size_t n = 0;
    for (const auto& c : conns_) n += c.pending.size();
    return n;
  }

  void poll_once(Clock::time_point until, const OnAnswer& fn) {
    pollfd fds[kConns];
    for (int i = 0; i < kConns; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    const int n = ::ppoll(fds, kConns, &ts, nullptr);
    if (n < 0 && errno != EINTR)
      throw std::runtime_error("ppoll: " + std::string(strerror(errno)));
    if (n <= 0) return;
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) c.flush();
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!c.fill()) throw std::runtime_error("daemon closed a connection");
      std::string payload;
      while (c.in.next(&payload)) {
        const auto now = Clock::now();
        if (c.pending.empty())
          throw std::runtime_error("answer without a request");
        const Conn::Pending p = c.pending.front();
        c.pending.pop_front();
        const Request& q = in_.pool[p.id % kPool];
        bool ok = false;
        try {
          ok = check_answer(in_, q, p.id % kPool, payload, hot_, tally);
        } catch (const std::exception&) {
          ok = false;
        }
        r_.op(ok,
              ok ? std::string() : "answer to " + q.payload + ": " + payload);
        fn(c, p, now, ok);
      }
    }
  }

  const Inputs& in_;
  bool hot_;
  Result& r_;
  Conn conns_[kConns];
  size_t seq_ = 0;
};

Json stats(serve::ServeClient& client) {
  Json req = Json::object();
  req.set("op", "stats");
  return client.call(req);
}

double stat(const Json& s, const char* group, const char* field) {
  return s.get(group).get(field).as_double();
}

/// In-process replays of the pool head's run requests through the layers
/// under the daemon: the tiered runtime, the fault executor (faults off),
/// and the plan's estimate and launch schedule, in ns per call.  Each key
/// gets its own runtime and dataset cache, as each daemon entry does.
void probe_exec(const Inputs& in, Layers& L, Result& r) {
  std::vector<size_t> runs;
  for (size_t i = 0; i < kProbe; ++i)
    if (in.pool[i].run) runs.push_back(i);
  std::vector<std::unique_ptr<TieredRuntime>> rts(in.keys.size());
  std::vector<std::unique_ptr<PlanDatasetCache>> caches(in.keys.size());
  for (size_t k = 0; k < in.keys.size(); ++k) {
    const Key& key = in.keys[k];
    const KernelPlan& plan = *in.progs[key.prog].c.plan;
    rts[k] = std::make_unique<TieredRuntime>(key.d->profile, plan);
    caches[k] =
        std::make_unique<PlanDatasetCache>(plan, key.d->profile, key.ds->sizes);
  }
  FaultPlan off;
  const double n = static_cast<double>(runs.size());
  auto thr_of = [&](const Request& q) -> const ThresholdEnv& {
    return in.progs[in.keys[q.key].prog].variants[q.variant];
  };
  auto plan_of = [&](const Request& q) -> const KernelPlan& {
    return *in.progs[in.keys[q.key].prog].c.plan;
  };
  auto expect = [&](const Request& q) {
    return in.expect[q.key][q.variant].estimate_us;
  };
  bool same = true;
  auto per_call_ns = [&](const char* name, const std::function<void()>& fn) {
    L.set(name, 1000 / n * timed_us(name, fn));
  };
  per_call_ns("exec.tiered_run.ns", [&] {
    for (const size_t i : runs) {
      const Request& q = in.pool[i];
      const TieredOutcome t =
          rts[q.key]->run(in.keys[q.key].ds->sizes, thr_of(q), off);
      same &= t.run.estimate.time_us == expect(q);
    }
  });
  per_call_ns("exec.run_with_faults.ns", [&] {
    for (const size_t i : runs) {
      const Request& q = in.pool[i];
      const Key& k = in.keys[q.key];
      const RunOutcome o = run_with_faults(
          k.d->profile, plan_of(q), k.ds->sizes, thr_of(q), off);
      same &= o.estimate.time_us == expect(q);
    }
  });
  per_call_ns("plan.estimate.ns", [&] {
    for (const size_t i : runs) {
      const Request& q = in.pool[i];
      same &= plan_estimate(plan_of(q), *caches[q.key], thr_of(q)).time_us ==
              expect(q);
    }
  });
  size_t launches = 0;
  per_call_ns("plan.launch_schedule.ns", [&] {
    for (const size_t i : runs) {
      const Request& q = in.pool[i];
      launches +=
          plan_launch_schedule(plan_of(q), *caches[q.key], thr_of(q)).size();
    }
  });
  r.check(same && launches > 0,
          "in-process replay differs from the expected estimates");
}

/// The pool's head through ServerCore::handle_text in-process, and the
/// protocol's parse and serialise of the same stream.
void probe_core(const Inputs& in, serve::ServerCore& core, Layers& L) {
  std::vector<double> core_us, parse_us, ser_us;
  for (size_t i = 0; i < kProbe; ++i) {
    const Request& q = in.pool[i];
    std::string answer;
    core_us.push_back(timed_us(
        "serve.handle_text", [&] { answer = core.handle_text(q.payload); }));
    Json req;
    parse_us.push_back(
        timed_us("json.parse", [&] { req = Json::parse(q.payload); }));
    const Json resp = Json::parse(answer);
    std::string text;
    ser_us.push_back(timed_us("json.str", [&] { text = resp.str(-1); }));
  }
  L.set("serve.core.us", median(core_us));
  L.set("serve.protocol.parse.us", median(parse_us));
  L.set("serve.protocol.serialize.us", median(ser_us));
}

/// The churn configuration, closed loop for `seconds`: the plan cache's
/// miss and eviction paths, compiles under load and runs that never get
/// hot, all of which serve-hot bypasses.
void probe_churn(const Config& cfg, double seconds, Result& r, Layers& L) {
  const std::unique_ptr<Inputs> in = build_inputs(cfg, /*churn=*/true, r);
  Daemon daemon(cfg, /*churn=*/true, /*rep=*/-1);
  serve::ServeClient client(serve::parse_endpoint("unix:" + daemon.path()),
                            10000);
  Generator gen(*in, daemon.path(), /*hot=*/false, r);
  const Json before = stats(client);
  L.set("churn.ops_per_s",
        summarize("churn", gen.closed(seconds)).ops_per_s);
  const Json after = stats(client);
  const double hits =
      stat(after, "cache", "hits") - stat(before, "cache", "hits");
  const double misses =
      stat(after, "cache", "misses") - stat(before, "cache", "misses");
  L.set("plan_cache.hit_frac", hits / std::max(1.0, hits + misses));
  L.set("plan_cache.evictions", stat(after, "cache", "evictions") -
                                    stat(before, "cache", "evictions"));
  L.set("churn.rtt.us", median(gen.rtt_us.values()));
  L.set("churn.spec_frac", static_cast<double>(gen.tally.spec) /
                               static_cast<double>(
                                   std::max<int64_t>(1, gen.tally.runs)));
}

/// One set-up: request pool and expected answers, a daemon, and its cache
/// warmed up.
struct Served {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Daemon> daemon;  // declared last: stops first
};

Served serve_setup(const Config& cfg, int rep, Result& r) {
  Served s;
  s.in = build_inputs(cfg, /*churn=*/false, r);
  s.daemon = std::make_unique<Daemon>(cfg, /*churn=*/false, rep);
  serve::ServeClient client(serve::parse_endpoint("unix:" + s.daemon->path()),
                            10000);
  // Warm-up: every key past the tiered runtime's stability window.
  for (size_t k = 0; k < s.in->keys.size(); ++k)
    for (int i = 0; i < 12; ++i)
      r.check(client.call(run_request(*s.in, k, 0)).get("ok").as_bool(),
              "warm-up run failed");
  return s;
}

}  // namespace

WorkloadOutput run_serve(const Config& cfg, Result& r) {
  WorkloadOutput out;
  if (cfg.hot_rate <= 0) throw std::runtime_error("no open-loop rate");

  SetupTimes setups;
  Served hot;
  int rep = 0;
  setups.time([&] { hot = serve_setup(cfg, rep++, r); });
  const Inputs& in = *hot.in;
  Daemon& daemon = *hot.daemon;

  serve::ServeClient client(serve::parse_endpoint("unix:" + daemon.path()),
                            10000);
  Generator gen(in, daemon.path(), /*hot=*/true, r);
  if (!cfg.trace) {
    // Before each closed-loop slice, time one more set-up of a second
    // daemon beside the idle first, and stop it untimed.
    out.loop.ops_per_s =
        summarize("closed", gen.closed(cfg.seconds / 2, [&](int) {
          Served spare;
          setups.time([&] { spare = serve_setup(cfg, rep++, r); });
        })).ops_per_s;
    out.setup_s = setups.median_s();
    const LoopSummary open =
        summarize("open", gen.open(cfg.hot_rate, cfg.seconds / 2));
    out.loop.p50_us = open.p50_us;
    out.loop.p90_us = open.p90_us;
  } else {
    Layers& L = out.layers;
    measure_trace_overhead(
        cfg, [&](double s) { return summarize("closed", gen.closed(s)); },
        L);
    trace::flush_spans();  // bounded memory: drop the overhead stretches
    gen.rtt_us.clear();
    const auto open = gen.open(cfg.hot_rate, cfg.seconds / 8);
    L.set("serve.open_p99_us", summarize("open", open).p99_us);
    gen.closed(cfg.seconds / 8);
    L.set("scheduler.max_queue_depth",
          stat(stats(client), "scheduler", "max_queue_depth"));
    const double runs =
        static_cast<double>(std::max<int64_t>(1, gen.tally.runs));
    L.set("serve.spec_frac", static_cast<double>(gen.tally.spec) / runs);
    L.set("serve.batched_frac",
          static_cast<double>(gen.tally.batched) / runs);
    L.set("gen.late_p99_us", percentile(gen.late_us.values(), 99));
    L.set("serve.rtt.us", median(gen.rtt_us.values()));
    probe_churn(cfg, cfg.seconds / 8, r, L);
    // Every stats op flushes too; the Chrome trace keeps the in-process
    // probes below.
    trace::flush_spans();
    probe_core(in, daemon.core(), L);
    L.set("serve.net.us",
          L.value("serve.rtt.us") - L.value("serve.core.us"));
    probe_exec(in, L, r);
  }

  // The simulated speed of the served code: every key once at default
  // thresholds, answered over the socket and checked against the fresh
  // in-process compile.
  std::vector<double> sims;
  for (size_t k = 0; k < in.keys.size(); ++k) {
    const Json resp = client.call(run_request(in, k, 0));
    const Json* est = resp.find("estimate_us");
    const bool ok = est && est->as_double() == in.expect[k][0].estimate_us;
    r.check(ok, "served answer differs from in-process estimate: " +
                    resp.str(-1));
    if (ok) sims.push_back(est->as_double());
  }
  out.sim_geomean_us = geomean(sims);
  return out;
}

}  // namespace perfbench
