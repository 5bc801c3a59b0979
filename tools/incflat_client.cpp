// incflat_client — one-shot client for incflatd.
//
//   incflat_client --connect unix:/tmp/incflatd.sock ping
//   incflat_client compile matmul --mode incremental --device k40
//   incflat_client run matmul D1 --tuned
//   incflat_client tune matmul --trials 64
//   incflat_client stats            incflat_client shutdown
//   incflat_client raw '{"op":"run","benchmark":"matmul","dataset":"D1"}'
//
// Prints the response JSON (pretty) to stdout.  Exit codes: 0 response has
// ok=true, 1 response has ok=false, 2 usage error, 3 transport failure.
//
// --timeout-ms bounds the connect and each response wait; --retries N
// retries connect-refused / timed-out calls with jittered exponential
// backoff (fresh connection per attempt) — and also retries responses the
// daemon marked "retriable":true (shed, draining, deadline-expired).
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/support/error.h"
#include "src/support/json.h"
#include "src/support/str.h"

using namespace incflat;

namespace {

int usage(FILE* to) {
  std::fputs(R"(usage: incflat_client [--connect SPEC] OP [args] [options]

  ops: ping | stats | shutdown
       compile BENCH            [--mode M] [--device D]
       run BENCH DATASET        [--mode M] [--device D] [--tuned]
                                [--threshold NAME=V]...
       tune BENCH               [--mode M] [--device D] [--trials N]
       raw JSON                 send a verbatim request payload

  --connect SPEC   unix:PATH or tcp:[HOST:]PORT
                   (default unix:/tmp/incflatd.sock)
  --trials N       tune trial budget, 0..2147483647 (0: the daemon's)
  --threshold NAME=V  override one threshold; V an integer in int64's range
  --timeout-ms MS  bound the connect and each response wait, MS >= 0
                   (default 0: none)
  --deadline-ms MS end-to-end server-side deadline for the request, MS >= 0
                   (default 0: none)
  --retries N      retry refused/timed-out/retriable calls up to N times,
                   0..2147483646, with jittered exponential backoff
)",
             to);
  return to == stdout ? 0 : 2;
}

/// Jittered exponential backoff before retry `attempt` (1-based):
/// base 50ms * 2^(attempt-1), capped at 2s, then scaled by a uniform
/// [0.5, 1.5) jitter so a herd of retrying clients decorrelates.
void backoff_sleep(int attempt, std::mt19937_64& rng) {
  double ms = 50.0;
  for (int i = 1; i < attempt; ++i) ms = std::min(ms * 2, 2000.0);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  ms *= jitter(rng);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect = "unix:/tmp/incflatd.sock";
  std::vector<std::string> pos;
  std::string mode, device;
  std::vector<std::pair<std::string, int64_t>> thresholds;
  int trials = 0;
  bool tuned = false;
  double timeout_ms = 0;
  double deadline_ms = 0;
  int retries = 0;

  // A server going away mid-write must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  ArgReader args("incflat_client", argc, argv);
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--connect") {
      connect = args.value();
    } else if (arg == "--mode") {
      mode = args.value();
    } else if (arg == "--device") {
      device = args.value();
    } else if (arg == "--trials") {
      trials = static_cast<int>(args.integer(0, INT_MAX));
    } else if (arg == "--tuned") {
      tuned = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = args.real(0, kInf);
    } else if (arg == "--deadline-ms") {
      deadline_ms = args.real(0, kInf);
    } else if (arg == "--retries") {
      retries = static_cast<int>(args.integer(0, INT_MAX - 1));
    } else if (arg == "--threshold") {
      const std::string kv = args.value();
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) args.fail("--threshold: want NAME=VALUE");
      thresholds.emplace_back(
          kv.substr(0, eq), args.check([&] {
            return read_int("--threshold " + kv.substr(0, eq),
                            kv.substr(eq + 1), INT64_MIN, INT64_MAX);
          }));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "incflat_client: unknown option '%s'\n",
                   arg.c_str());
      return usage(stderr);
    } else {
      pos.push_back(arg);
    }
  }
  if (pos.empty()) return usage(stderr);

  const std::string& op = pos[0];
  Json req = Json::object();
  std::string raw_payload;
  if (op == "ping" || op == "stats" || op == "shutdown") {
    req.set("op", op);
  } else if (op == "compile" || op == "tune") {
    if (pos.size() != 2) return usage(stderr);
    req.set("op", op);
    req.set("benchmark", pos[1]);
    if (op == "tune" && trials > 0) req.set("trials", trials);
  } else if (op == "run") {
    if (pos.size() != 3) return usage(stderr);
    req.set("op", "run");
    req.set("benchmark", pos[1]);
    req.set("dataset", pos[2]);
    if (tuned) req.set("tuned", true);
    if (!thresholds.empty()) {
      Json t = Json::object();
      for (const auto& [k, v] : thresholds) t.set(k, v);
      req.set("thresholds", t);
    }
  } else if (op == "raw") {
    if (pos.size() != 2) return usage(stderr);
    raw_payload = pos[1];
  } else {
    std::fprintf(stderr, "incflat_client: unknown op '%s'\n", op.c_str());
    return usage(stderr);
  }
  if (raw_payload.empty()) {
    if (!mode.empty()) req.set("mode", mode);
    if (!device.empty()) req.set("device", device);
    if (deadline_ms > 0) req.set("deadline_ms", deadline_ms);
  }

  const std::string payload = raw_payload.empty() ? req.str(-1) : raw_payload;
  const serve::Endpoint ep =
      args.check([&] { return serve::parse_endpoint(connect); });
  std::mt19937_64 rng(std::random_device{}());

  // Each attempt uses a fresh connection: a timed-out call leaves the old
  // stream with an unconsumed response in flight, unusable for a resend.
  std::string last_error;
  for (int attempt = 1; attempt <= 1 + retries; ++attempt) {
    if (attempt > 1) backoff_sleep(attempt - 1, rng);
    try {
      serve::ServeClient client(ep, timeout_ms);
      const std::string resp_text = client.call_text(payload);
      Json resp;
      try {
        resp = Json::parse(resp_text);
      } catch (const JsonParseError&) {
        std::printf("%s\n", resp_text.c_str());
        return 1;
      }
      if (serve::is_retriable(resp) && attempt <= retries) {
        const Json* code = resp.find("code");
        std::fprintf(stderr,
                     "incflat_client: retriable failure (%s), retrying "
                     "(%d/%d)\n",
                     code && code->is_string() ? code->as_string().c_str()
                                               : "?",
                     attempt, retries);
        continue;
      }
      std::printf("%s\n", resp.str(2).c_str());
      const Json* ok = resp.find("ok");
      return ok && ok->is_bool() && ok->as_bool() ? 0 : 1;
    } catch (const IoError& e) {
      last_error = e.what();
      if (attempt <= retries) {
        std::fprintf(stderr, "incflat_client: %s, retrying (%d/%d)\n",
                     e.what(), attempt, retries);
        continue;
      }
      std::fprintf(stderr, "incflat_client: %s\n", e.what());
      return 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "incflat_client: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "incflat_client: retries exhausted: %s\n",
               last_error.c_str());
  return 3;
}
