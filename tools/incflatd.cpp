// incflatd — the compile-and-serve daemon.
//
// Serves compile / run / tune / stats requests over the length-prefixed
// JSON protocol (src/serve/protocol.h) on a unix or tcp endpoint, with an
// LRU plan cache and a priority job scheduler (src/serve/).  See
// DESIGN.md, "Compile-and-serve daemon".
//
//   incflatd --listen unix:/tmp/incflatd.sock
//   incflatd --listen tcp:7465 --cache-mb 128 --workers 4
//            --faults launch-failed=1e-4 --tune-trials 128
//   incflatd --listen tcp:0 --max-conns 256 --queue-cap 512
//            --net-chaos all=0.05 --drain-ms 3000
//
// SIGTERM / SIGINT begin a graceful drain: stop accepting, fail-fast new
// requests ("draining", retriable), finish or deadline-out in-flight work,
// flush every owed response, exit 0 — within --drain-ms.  SIGPIPE is
// ignored (a dying peer must never kill the daemon).
//
// Exit codes: 0 clean shutdown/drain, 2 usage error, 3 bind/IO failure.
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/gpusim/faults.h"
#include "src/serve/chaos.h"
#include "src/serve/net.h"
#include "src/serve/server.h"
#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/trace.h"

using namespace incflat;

namespace {

struct Options {
  std::string listen = "unix:/tmp/incflatd.sock";
  serve::ServeOptions serve;
  serve::SocketOptions sock;
  bool trace = false;
  bool print_ready = false;  // print "READY <endpoint>" once listening
};

/// The live socket, for the signal handlers.  Plain pointer + atomic store:
/// request_drain() is async-signal-safe by contract.
std::atomic<serve::ServeSocket*> g_sock{nullptr};

extern "C" void on_term_signal(int) {
  if (serve::ServeSocket* s = g_sock.load(std::memory_order_relaxed))
    s->request_drain();
}

int usage(FILE* to) {
  std::fputs(R"(usage: incflatd [options]

  --listen SPEC      endpoint: unix:PATH or tcp:[HOST:]PORT, port 0..65535
                     (default unix:/tmp/incflatd.sock; tcp port 0 picks an
                     ephemeral port)
  --cache-mb N       plan cache byte budget in MiB, 0..1048576 (default 64)
  --workers N        scheduler worker threads, 0..1024 (default 0:
                     min(cores, 8))
  --faults SPEC      fault injection for served runs (also INCFLAT_FAULTS)
  --fault-seed N     fault stream seed, 0..2^64-1 in decimal, 0x hex or 0
                     octal (also INCFLAT_FAULT_SEED)
  --tune-trials N    default tune trial budget, 1..2147483647 (default 64)
  --max-conns N      connection cap, 0..2147483647 (default 0: none):
                     connections past it get one 'overloaded' (retriable)
                     frame and are closed
  --max-inflight N   per-connection pipelined-request cap (shed past it),
                     0..2147483647 (default 0: none)
  --queue-cap N      per-priority-class scheduler queue bound, 0..2^63-1
                     (default 0: none; reject-newest, 'overloaded' retriable)
  --drain-ms MS      graceful-drain bound on SIGTERM/SIGINT, MS >= 0
                     (default 5000; 0 severs at once)
  --net-chaos SPEC   network chaos injection (also INCFLAT_NET_CHAOS); keys
                     dribble, partial-write, stall, reset, accept-fail (rates
                     in [0, 1]), stall-us (0..1e9); 'all=R' shorthand
  --net-chaos-seed N chaos stream seed, as --fault-seed (also
                     INCFLAT_NET_CHAOS_SEED)
  --trace            enable the trace layer (stats op reports spans)
  --ready            print 'READY <endpoint>' on stdout once listening
)",
             to);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  ArgReader args("incflatd", argc, argv);
  // A fault or chaos spec is read where it is given, so a malformed one is
  // a usage error naming its flag or variable.
  const auto faults = [&](const std::string& spec, const std::string& name) {
    args.check([&] { parse_fault_spec(spec); }, name);
    opt.serve.faults = spec;
  };
  const auto chaos = [&](const std::string& spec, const std::string& name) {
    opt.sock.chaos = args.check([&] { return serve::parse_net_chaos(spec); },
                                name);
  };
  if (const char* env = std::getenv("INCFLAT_FAULTS"))
    faults(env, "INCFLAT_FAULTS");
  if (auto seed = args.env_seed("INCFLAT_FAULT_SEED"))
    opt.serve.fault_seed = *seed;
  if (const char* env = std::getenv("INCFLAT_NET_CHAOS"))
    chaos(env, "INCFLAT_NET_CHAOS");
  if (auto seed = args.env_seed("INCFLAT_NET_CHAOS_SEED"))
    opt.sock.chaos_seed = *seed;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (args.next()) {
    const std::string& arg = args.arg();
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--listen") {
      opt.listen = args.value();
    } else if (arg == "--cache-mb") {
      opt.serve.cache_bytes = static_cast<size_t>(args.integer(0, 1 << 20))
                              << 20;
    } else if (arg == "--workers") {
      opt.serve.workers = static_cast<int>(args.integer(0, 1024));
    } else if (arg == "--faults") {
      faults(args.value(), arg);
    } else if (arg == "--fault-seed") {
      opt.serve.fault_seed = args.seed();
    } else if (arg == "--tune-trials") {
      opt.serve.tune_trials = static_cast<int>(args.integer(1, INT_MAX));
    } else if (arg == "--max-conns") {
      opt.sock.max_conns = static_cast<int>(args.integer(0, INT_MAX));
    } else if (arg == "--max-inflight") {
      opt.sock.max_inflight_per_conn =
          static_cast<int>(args.integer(0, INT_MAX));
    } else if (arg == "--queue-cap") {
      opt.serve.queue_cap = args.integer(0, INT64_MAX);
    } else if (arg == "--drain-ms") {
      opt.sock.drain_ms = args.real(0, kInf);
    } else if (arg == "--net-chaos") {
      chaos(args.value(), arg);
    } else if (arg == "--net-chaos-seed") {
      opt.sock.chaos_seed = args.seed();
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--ready") {
      opt.print_ready = true;
    } else {
      std::fprintf(stderr, "incflatd: unknown option '%s'\n", arg.c_str());
      return usage(stderr);
    }
  }

  try {
    if (opt.trace) trace::set_enabled(true);
    const serve::Endpoint ep = serve::parse_endpoint(opt.listen);
    serve::ServerCore core(opt.serve);
    serve::ServeSocket sock(core, ep, opt.sock);

    // A dying peer mid-write must be an EPIPE errno, not a fatal signal.
    std::signal(SIGPIPE, SIG_IGN);
    // SIGTERM/SIGINT begin a graceful drain instead of killing the daemon.
    g_sock.store(&sock, std::memory_order_relaxed);
    std::signal(SIGTERM, on_term_signal);
    std::signal(SIGINT, on_term_signal);

    if (opt.print_ready) {
      if (ep.kind == serve::Endpoint::Kind::Tcp) {
        std::printf("READY tcp:%s:%u\n",
                    ep.host.empty() ? "127.0.0.1" : ep.host.c_str(),
                    static_cast<unsigned>(sock.bound_port()));
      } else {
        std::printf("READY unix:%s\n", ep.path.c_str());
      }
      std::fflush(stdout);
    }
    sock.serve_forever();
    g_sock.store(nullptr, std::memory_order_relaxed);

    const serve::DrainStats& ds = sock.drain_stats();
    if (ds.requested) {
      std::fprintf(stderr,
                   "incflatd: drained %s (%lld connection(s) forced)\n",
                   ds.clean ? "clean" : "at deadline",
                   static_cast<long long>(ds.forced_conns));
    }
    if (opt.sock.chaos.enabled()) {
      const serve::NetChaos::Counts& cc = sock.chaos_counts();
      std::fprintf(stderr,
                   "incflatd: net-chaos fired %lld event(s): %lld dribble, "
                   "%lld partial-write, %lld stall, %lld reset, %lld "
                   "accept-fail\n",
                   static_cast<long long>(cc.total()),
                   static_cast<long long>(cc.dribbles),
                   static_cast<long long>(cc.partial_writes),
                   static_cast<long long>(cc.stalls),
                   static_cast<long long>(cc.resets),
                   static_cast<long long>(cc.accept_fails));
    }
    return 0;
  } catch (const IoError& e) {
    std::fprintf(stderr, "incflatd: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "incflatd: %s\n", e.what());
    return 1;
  }
}
