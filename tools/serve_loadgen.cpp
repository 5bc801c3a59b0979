// serve_loadgen — concurrent load generator for incflatd.
//
// Drives N client connections against a running daemon with a configurable
// request mix and zipfian key skew over (benchmark, dataset) pairs — the
// shape of real serving traffic, where a handful of hot models take most of
// the requests and the tail keeps the cache honest.  Reports throughput,
// per-op latency percentiles and the error/protocol-failure count; exits
// nonzero ONLY for true protocol violations (bad frame, unparseable JSON,
// a response without a boolean "ok") so CI can assert "zero protocol
// errors" directly on the exit code even while the daemon is shedding
// load, enforcing deadlines, draining, or running under network chaos —
// those outcomes are counted as distinct classes, not failures:
//
//   * retriable ok=false responses split into `shed` (overloaded /
//     draining) and `deadline_expired` (timeout / cancelled);
//   * transport drops (reset, timeout, refused connect) count as `resets`
//     and the client reconnects with a fresh connection and resends,
//     bounded per request.
//
//   serve_loadgen --connect unix:/tmp/incflatd.sock --clients 16
//       --requests 200 --zipf 1.1 --mix run=0.9,compile=0.1
//       --deadline-ms 2000 --timeout-ms 10000
//
// Exit codes: 0 no protocol violations, 1 protocol violations seen,
// 2 usage error, 3 could not connect.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/benchsuite/benchmark.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/support/error.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/str.h"

using namespace incflat;

namespace {

struct Options {
  std::string connect = "unix:/tmp/incflatd.sock";
  int clients = 16;
  int requests = 100;  // per client
  double zipf = 1.1;   // key-skew exponent; 0 = uniform
  double run_frac = 0.9, compile_frac = 0.1, stats_frac = 0.0;
  uint64_t seed = 0x10adULL;
  std::string device = "k40";
  std::string json_out;  // optional machine-readable report
  double deadline_ms = 0;  // per-request end-to-end server deadline
  double timeout_ms = 0;   // client-side connect/response bound
};

int usage(FILE* to) {
  std::fputs(R"(usage: serve_loadgen [options]
  --connect SPEC    unix:PATH or tcp:[HOST:]PORT
  --clients N       concurrent connections, 0..1024 (default 16)
  --requests N      requests per client, 0..2147483647 (default 100)
  --zipf S          zipfian skew exponent over keys, S >= 0 (default 1.1;
                    0 = uniform)
  --mix SPEC        op mix, e.g. run=0.9,compile=0.1 (ops: run, compile,
                    stats; fractions in [0, 1])
  --device D        device profile for requests (default k40)
  --seed N          workload seed, 0..2^64-1 in decimal, 0x hex or 0 octal
  --deadline-ms MS  attach an end-to-end deadline to every request, MS >= 0
                    (default 0: none)
  --timeout-ms MS   client-side connect/response bound (reconnect on
                    breach), MS >= 0 (default 0: none)
  --json FILE       write the report as JSON
)",
             to);
  return to == stdout ? 0 : 2;
}

struct Key {
  std::string benchmark;
  std::string dataset;
};

/// Latency sample sink, one per op kind.
struct Lat {
  std::vector<double> us;
  void add(double v) { us.push_back(v); }
  double pct(double p) {
    if (us.empty()) return 0;
    std::sort(us.begin(), us.end());
    const size_t ix = std::min(
        us.size() - 1, static_cast<size_t>(p / 100.0 *
                                           static_cast<double>(us.size())));
    return us[ix];
  }
  double mean() const {
    if (us.empty()) return 0;
    double sum = 0;
    for (const double v : us) sum += v;
    return sum / static_cast<double>(us.size());
  }
  double max() const {
    double m = 0;
    for (const double v : us) m = std::max(m, v);
    return m;
  }
};

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ArgReader args("serve_loadgen", argc, argv);
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--connect") {
      opt.connect = args.value();
    } else if (arg == "--clients") {
      opt.clients = static_cast<int>(args.integer(0, 1024));
    } else if (arg == "--requests") {
      opt.requests = static_cast<int>(args.integer(0, INT_MAX));
    } else if (arg == "--zipf") {
      opt.zipf = args.real(0, kInf);
    } else if (arg == "--seed") {
      opt.seed = args.seed();
    } else if (arg == "--device") {
      opt.device = args.value();
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = args.real(0, kInf);
    } else if (arg == "--timeout-ms") {
      opt.timeout_ms = args.real(0, kInf);
    } else if (arg == "--json") {
      opt.json_out = args.value();
    } else if (arg == "--mix") {
      opt.run_frac = opt.compile_frac = opt.stats_frac = 0;
      const std::string spec = args.value();
      args.check([&] {
        for (const SpecItem& it : split_spec(spec, "--mix")) {
          const double f = read_real("--mix " + it.key, it.value, 0, 1);
          if (it.key == "run") opt.run_frac = f;
          else if (it.key == "compile") opt.compile_frac = f;
          else if (it.key == "stats") opt.stats_frac = f;
          else throw IoError("--mix: unknown op '" + it.key + "'");
        }
      });
    } else {
      std::fprintf(stderr, "serve_loadgen: unknown option '%s'\n",
                   arg.c_str());
      return usage(stderr);
    }
  }

  // The key population: every (benchmark, evaluation dataset) pair, in a
  // fixed order so the zipf ranks are stable across runs.
  std::vector<Key> keys;
  for (const std::string& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (const auto& d : b.datasets) keys.push_back({name, d.name});
  }
  if (keys.empty()) {
    std::fprintf(stderr, "serve_loadgen: no benchmark datasets\n");
    return 1;
  }

  // Zipfian CDF over key ranks: P(rank k) ~ 1 / k^s.
  std::vector<double> cdf(keys.size());
  double acc = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    acc += opt.zipf > 0
               ? 1.0 / std::pow(static_cast<double>(k + 1), opt.zipf)
               : 1.0;
    cdf[k] = acc;
  }
  for (double& c : cdf) c /= acc;

  const serve::Endpoint ep =
      args.check([&] { return serve::parse_endpoint(opt.connect); });

  // A daemon resetting a connection mid-write (chaos, drain deadline) must
  // surface as EPIPE on our side, not kill the whole load generator.
  std::signal(SIGPIPE, SIG_IGN);

  std::atomic<int64_t> protocol_errors{0};    // framing/parse/shape violations
  std::atomic<int64_t> request_errors{0};     // non-retriable ok=false
  std::atomic<int64_t> shed{0};               // retriable: overloaded/draining
  std::atomic<int64_t> deadline_expired{0};   // retriable: timeout/cancelled
  std::atomic<int64_t> resets{0};             // transport drops + reconnects
  std::atomic<int64_t> unanswered{0};         // dropped after reconnect budget
  std::mutex agg_mu;
  std::map<std::string, Lat> lat;  // per-op latency, merged under agg_mu
  int64_t total = 0;

  const double t0 = now_us();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c) {
    workers.emplace_back([&, c] {
      std::map<std::string, Lat> local;
      Rng rng(opt.seed + static_cast<uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
      std::unique_ptr<serve::ServeClient> client;
      for (int r = 0; r < opt.requests; ++r) {
        // Pick the op, then the key by zipf rank.
        const double u = rng.uniform();
        std::string op = "run";
        if (u >= opt.run_frac && u < opt.run_frac + opt.compile_frac)
          op = "compile";
        else if (u >= opt.run_frac + opt.compile_frac &&
                 u < opt.run_frac + opt.compile_frac + opt.stats_frac)
          op = "stats";
        const double kv = rng.uniform();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), kv) - cdf.begin());
        const Key& key = keys[std::min(rank, keys.size() - 1)];

        Json req = Json::object();
        req.set("op", op);
        if (op != "stats") {
          req.set("benchmark", key.benchmark);
          req.set("device", opt.device);
        }
        if (op == "run") req.set("dataset", key.dataset);
        if (opt.deadline_ms > 0) req.set("deadline_ms", opt.deadline_ms);

        // Transport drops (chaos reset, response timeout, refused connect
        // while the daemon restarts a listen queue) reconnect and resend —
        // bounded so a dead daemon cannot hang the run.  A one-response
        // stream makes the resend safe: nothing of the old stream is
        // reusable, and the daemon treats it as a fresh request.
        Json resp;
        bool answered = false;
        for (int attempt = 0; attempt < 5 && !answered; ++attempt) {
          if (!client) {
            try {
              client = std::make_unique<serve::ServeClient>(ep,
                                                            opt.timeout_ms);
            } catch (const std::exception&) {
              ++resets;
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              continue;
            }
          }
          const double s = now_us();
          try {
            resp = client->call(req);
            local[op].add(now_us() - s);
            answered = true;
          } catch (const serve::ProtocolError& e) {
            // Corrupt framing is exactly what chaos promises never to
            // produce: a true protocol violation.
            std::fprintf(stderr, "serve_loadgen: client %d: framing: %s\n",
                         c, e.what());
            ++protocol_errors;
            client.reset();
          } catch (const JsonParseError& e) {
            std::fprintf(stderr, "serve_loadgen: client %d: bad json: %s\n",
                         c, e.what());
            ++protocol_errors;
            client.reset();
          } catch (const std::exception&) {
            // IoError: reset / timeout / EOF — expected under chaos.
            ++resets;
            client.reset();
          }
        }
        if (!answered) {
          ++unanswered;
          continue;
        }
        const Json* ok = resp.find("ok");
        if (!ok || !ok->is_bool()) {
          ++protocol_errors;
        } else if (!ok->as_bool()) {
          if (serve::is_retriable(resp)) {
            const Json* code = resp.find("code");
            const std::string cs =
                code && code->is_string() ? code->as_string() : "";
            if (cs == "timeout" || cs == "cancelled")
              ++deadline_expired;
            else
              ++shed;  // overloaded / draining
          } else {
            ++request_errors;
          }
        }
      }
      std::lock_guard<std::mutex> lk(agg_mu);
      for (auto& [op, l] : local) {
        auto& dst = lat[op];
        dst.us.insert(dst.us.end(), l.us.begin(), l.us.end());
      }
    });
  }
  for (auto& t : workers) t.join();
  const double wall_us = now_us() - t0;
  for (auto& [op, l] : lat) total += static_cast<int64_t>(l.us.size());

  const double throughput =
      wall_us > 0 ? static_cast<double>(total) / (wall_us / 1e6) : 0;
  std::printf("serve_loadgen: %lld requests over %d clients in %.1f ms "
              "(%.0f req/s)\n",
              static_cast<long long>(total), opt.clients, wall_us / 1000.0,
              throughput);
  Json ops = Json::object();
  for (auto& [op, l] : lat) {
    std::printf("  %-8s n=%-6zu p50=%8.1fus  p95=%8.1fus  p99=%8.1fus  "
                "mean=%8.1fus  max=%8.1fus\n",
                op.c_str(), l.us.size(), l.pct(50), l.pct(95), l.pct(99),
                l.mean(), l.max());
    Json o = Json::object();
    o.set("n", l.us.size());
    o.set("p50_us", l.pct(50));
    o.set("p95_us", l.pct(95));
    o.set("p99_us", l.pct(99));
    o.set("mean_us", l.mean());
    o.set("max_us", l.max());
    ops.set(op, o);
  }
  std::printf("  errors: protocol=%lld request=%lld\n",
              static_cast<long long>(protocol_errors.load()),
              static_cast<long long>(request_errors.load()));
  std::printf("  overload: shed=%lld deadline_expired=%lld resets=%lld "
              "unanswered=%lld\n",
              static_cast<long long>(shed.load()),
              static_cast<long long>(deadline_expired.load()),
              static_cast<long long>(resets.load()),
              static_cast<long long>(unanswered.load()));

  if (!opt.json_out.empty()) {
    Json doc = Json::object();
    doc.set("clients", opt.clients);
    doc.set("requests_per_client", opt.requests);
    doc.set("zipf", opt.zipf);
    doc.set("total", total);
    doc.set("wall_ms", wall_us / 1000.0);
    doc.set("throughput_rps", throughput);
    doc.set("protocol_errors", protocol_errors.load());
    doc.set("request_errors", request_errors.load());
    doc.set("shed", shed.load());
    doc.set("deadline_expired", deadline_expired.load());
    doc.set("resets", resets.load());
    doc.set("unanswered", unanswered.load());
    doc.set("deadline_ms", opt.deadline_ms);
    doc.set("timeout_ms", opt.timeout_ms);
    doc.set("ops", ops);
    FILE* f = std::fopen(opt.json_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "serve_loadgen: cannot write %s\n",
                   opt.json_out.c_str());
      return 1;
    }
    const std::string text = doc.str(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return protocol_errors.load() > 0 ? 1 : 0;
}
