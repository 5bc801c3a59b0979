// incflatd — the compile-and-serve daemon.
//
// Serves compile / run / tune / stats requests over the length-prefixed
// JSON protocol (src/serve/protocol.h) on a unix or tcp endpoint, with a
// sharded LRU plan cache and a priority job scheduler (src/serve/).  See
// DESIGN.md, "Compile-and-serve daemon".
//
//   incflatd --listen unix:/tmp/incflatd.sock
//   incflatd --listen tcp:7465 --cache-mb 128 --workers 4
//            --faults launch=1e-4 --tune-trials 128
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/serve/chaos.h"
#include "src/serve/net.h"
#include "src/serve/server.h"
#include "src/support/error.h"
#include "src/support/sync.h"
#include "src/support/trace.h"

using namespace incflat;

namespace {

struct Options {
  std::string listen = "unix:/tmp/incflatd.sock";
  serve::ServeOptions serve;
  serve::SocketOptions sock;
  bool trace = false;
  bool lockdep = false;      // runtime lock-order validation
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
  std::fprintf(to,
               "usage: incflatd [options]\n"
               "\n"
               "  --listen SPEC      endpoint: unix:PATH or tcp:[HOST:]PORT\n"
               "                     (default unix:/tmp/incflatd.sock;\n"
               "                     tcp port 0 picks an ephemeral port)\n"
               "  --cache-mb N       plan cache byte budget in MiB "
               "(default 64)\n"
               "  --cache-shards N   plan cache shard count (default 8)\n"
               "  --workers N        scheduler worker threads "
               "(default: min(cores, 8))\n"
               "  --faults SPEC      fault injection for served runs\n"
               "                     (also INCFLAT_FAULTS)\n"
               "  --fault-seed N     fault stream seed "
               "(also INCFLAT_FAULT_SEED)\n"
               "  --tune-trials N    default tune trial budget (default 64)\n"
               "  --tune-timeout MS  drop tune jobs queued longer than MS\n"
               "  --max-conns N      connection cap: connections past it "
               "get one\n"
               "                     'overloaded' (retriable) frame and are "
               "closed\n"
               "  --max-inflight N   per-connection pipelined-request cap "
               "(shed past it)\n"
               "  --queue-cap N      per-priority-class scheduler queue "
               "bound\n"
               "                     (reject-newest, 'overloaded' "
               "retriable)\n"
               "  --drain-ms MS      graceful-drain bound on SIGTERM/SIGINT "
               "(default 5000)\n"
               "  --net-chaos SPEC   network chaos injection "
               "(also INCFLAT_NET_CHAOS);\n"
               "                     keys dribble, partial-write, stall, "
               "reset,\n"
               "                     accept-fail, stall-us; 'all=R' "
               "shorthand\n"
               "  --net-chaos-seed N chaos stream seed "
               "(also INCFLAT_NET_CHAOS_SEED)\n"
               "  --trace            enable the trace layer (stats op "
               "reports spans)\n"
               "  --lockdep          enable runtime lock-order validation "
               "(also INCFLAT_LOCKDEP=1);\n"
               "                     inversions print on detection and a "
               "shutdown report\n"
               "                     fails the exit status\n"
               "  --ready            print 'READY <endpoint>' on stdout "
               "once listening\n");
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const char* env = std::getenv("INCFLAT_FAULTS")) opt.serve.faults = env;
  if (const char* env = std::getenv("INCFLAT_FAULT_SEED"))
    opt.serve.fault_seed = std::strtoull(env, nullptr, 0);
  std::string chaos_spec;
  if (const char* env = std::getenv("INCFLAT_NET_CHAOS")) chaos_spec = env;
  if (const char* env = std::getenv("INCFLAT_NET_CHAOS_SEED"))
    opt.sock.chaos_seed = std::strtoull(env, nullptr, 0);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "incflatd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--listen") {
      opt.listen = next();
    } else if (arg == "--cache-mb") {
      opt.serve.cache_bytes = static_cast<size_t>(std::atoll(next())) << 20;
    } else if (arg == "--cache-shards") {
      opt.serve.cache_shards = std::atoi(next());
    } else if (arg == "--workers") {
      opt.serve.workers = std::atoi(next());
    } else if (arg == "--faults") {
      opt.serve.faults = next();
    } else if (arg == "--fault-seed") {
      opt.serve.fault_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--tune-trials") {
      opt.serve.tune_trials = std::atoi(next());
    } else if (arg == "--tune-timeout") {
      opt.serve.tune_queue_timeout_ms = std::atof(next());
    } else if (arg == "--max-conns") {
      opt.sock.max_conns = std::atoi(next());
    } else if (arg == "--max-inflight") {
      opt.sock.max_inflight_per_conn = std::atoi(next());
    } else if (arg == "--queue-cap") {
      opt.serve.queue_cap = std::atoll(next());
    } else if (arg == "--drain-ms") {
      opt.sock.drain_ms = std::atof(next());
    } else if (arg == "--net-chaos") {
      chaos_spec = next();
    } else if (arg == "--net-chaos-seed") {
      opt.sock.chaos_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--lockdep") {
      opt.lockdep = true;
    } else if (arg == "--ready") {
      opt.print_ready = true;
    } else {
      std::fprintf(stderr, "incflatd: unknown option '%s'\n", arg.c_str());
      return usage(stderr);
    }
  }

  // Env first (deploy-wide default), flag second (per-instance override).
  sync::lockdep::enable_from_env();
  if (opt.lockdep) sync::lockdep::set_enabled(true);

  try {
    if (opt.trace) trace::set_enabled(true);
    opt.sock.chaos = serve::parse_net_chaos(chaos_spec);
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
    // Shutdown certification: a clean run under --lockdep proves this
    // instance's whole traffic mix never closed an ordering cycle.  Any
    // inversion was already printed at detection time; summarize and fail.
    if (sync::lockdep::enabled()) {
      sync::lockdep::publish_trace_counters();
      const auto ls = sync::lockdep::stats();
      std::fprintf(stderr,
                   "incflatd: lockdep: %lld classes, %lld edges, %lld "
                   "acquisitions, %lld violation(s)\n",
                   static_cast<long long>(ls.classes),
                   static_cast<long long>(ls.edges),
                   static_cast<long long>(ls.acquisitions),
                   static_cast<long long>(ls.violations));
      if (ls.violations > 0) return 1;
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
