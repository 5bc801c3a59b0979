#include "src/serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <system_error>
#include <vector>

#include "src/exec/runtime.h"
#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/sync.h"
#include "src/support/trace.h"

namespace incflat::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  // std::strerror is not thread-safe (clang-tidy concurrency-mt-unsafe);
  // error_code::message() allocates its own buffer.
  throw IoError(
      what + ": " + std::error_code(errno, std::generic_category()).message());
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_fail("fcntl(O_NONBLOCK)");
}

void write_fully(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE to
    // this call, not raise SIGPIPE in a host that never installed a
    // handler (tests, embedding programs).
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_fail("write");
    }
    off += static_cast<size_t>(w);
  }
}

void set_blocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0)
    sys_fail("fcntl(~O_NONBLOCK)");
}

/// poll(2)'s int timeout for `ms` (not NaN) milliseconds, a caller's double
/// such as incflat_client's --timeout-ms: clamped to [1, INT_MAX] before
/// converting, so a wait past INT_MAX ms (about 24 days) stops there.
int poll_ms(double ms) {
  return static_cast<int>(std::clamp(ms, 1.0, static_cast<double>(INT_MAX)));
}

/// Finish a nonblocking connect within `timeout_ms` (must be > 0): poll for
/// writability, then read the final verdict from SO_ERROR.  Throws IoError
/// (closing `fd`) on timeout or failure.
void await_connect(int fd, double timeout_ms, const std::string& where) {
  pollfd p{fd, POLLOUT, 0};
  const int rc = ::poll(&p, 1, poll_ms(timeout_ms));
  if (rc == 0) {
    ::close(fd);
    throw IoError("timed out connecting to " + where);
  }
  if (rc < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    sys_fail("poll(connect " + where + ")");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    ::close(fd);
    errno = err ? err : errno;
    sys_fail("connect(" + where + ")");
  }
}

int connect_endpoint(const Endpoint& ep, double timeout_ms) {
  const bool bounded = timeout_ms > 0;
  if (ep.kind == Endpoint::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      throw IoError("unix socket path too long: " + ep.path);
    }
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (bounded) set_nonblocking(fd);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (bounded && (errno == EINPROGRESS || errno == EAGAIN)) {
        await_connect(fd, timeout_ms, ep.path);
      } else {
        const int e = errno;
        ::close(fd);
        errno = e;
        sys_fail("connect(" + ep.path + ")");
      }
    }
    if (bounded) set_blocking(fd);
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const std::string host = ep.host.empty() ? "127.0.0.1" : ep.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw IoError("bad tcp host (numeric IPv4 required): " + host);
  }
  const std::string where = host + ":" + std::to_string(ep.port);
  if (bounded) set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (bounded && errno == EINPROGRESS) {
      await_connect(fd, timeout_ms, where);
    } else {
      const int e = errno;
      ::close(fd);
      errno = e;
      sys_fail("connect(" + where + ")");
    }
  }
  if (bounded) set_blocking(fd);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::Unix;
    ep.path = spec.substr(5);
    if (ep.path.empty())
      throw IoError("empty unix socket path in '" + spec + "'");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::Tcp;
    std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      ep.host = rest.substr(0, colon);
      rest = rest.substr(colon + 1);
    }
    ep.port = static_cast<uint16_t>(
        read_int("tcp port in '" + spec + "'", rest, 0, 65535));
    return ep;
  }
  throw IoError("endpoint must be unix:PATH or tcp:[HOST:]PORT, got '" +
                spec + "'");
}

// ---------------------------------------------------------------------------
// Server.

namespace {

/// Completion queue + self-pipe wakeup, shared (shared_ptr) between the
/// poll loop and every scheduler job.  It is a separate allocation on
/// purpose: a job can still be running when the socket front-end is torn
/// down, and its completion must land somewhere valid — the last owner
/// (possibly a scheduler worker) frees it.
struct DoneQueue {
  int wake_r = -1, wake_w = -1;
  sync::Mutex mu{"serve.done_queue", sync::Level::Leaf};
  std::deque<std::tuple<uint64_t, uint64_t, std::string>> q GUARDED_BY(mu);

  DoneQueue() {
    int pipefd[2];
    if (::pipe(pipefd) < 0) sys_fail("pipe");
    wake_r = pipefd[0];
    wake_w = pipefd[1];
    set_nonblocking(wake_r);
    set_nonblocking(wake_w);
  }
  ~DoneQueue() {
    ::close(wake_r);
    ::close(wake_w);
  }

  void wake() {
    const char b = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t r = ::write(wake_w, &b, 1);
  }

  void push(uint64_t conn_id, uint64_t seq, std::string payload) {
    {
      sync::MutexLock lk(mu);
      q.emplace_back(conn_id, seq, std::move(payload));
    }
    wake();
  }
};

}  // namespace

struct ServeSocket::Impl {
  using Clock = std::chrono::steady_clock;

  ServerCore& core;
  Endpoint ep;
  SocketOptions sopts;
  int listen_fd = -1;
  std::shared_ptr<DoneQueue> dq = std::make_shared<DoneQueue>();
  std::atomic<bool> stop{false};

  // Drain state machine.  drain_req is the only cross-thread (and
  // signal-context) entry point: one atomic store, observed by the loop at
  // the top of each iteration.  Everything else is loop-thread-local.
  std::atomic<bool> drain_req{false};
  bool draining = false;
  Clock::time_point drain_deadline{};
  DrainStats dstats;

  // EMFILE/ENFILE cooldown: accepting resumes after this instant instead of
  // busy-looping on a level-triggered listen fd we cannot accept from.
  Clock::time_point accept_pause_until{};

  NetChaos chaos;

  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    size_t outoff = 0;       // written prefix of outbuf; compacted on drain
    uint64_t next_seq = 0;   // next request sequence number to assign
    uint64_t next_write = 0; // next sequence number to write out
    std::map<uint64_t, std::string> ready;  // out-of-order completions
    uint64_t inflight = 0;
    bool closing = false;         // flush outbuf, then close
    bool shutdown_after = false;  // stop the loop once flushed
    // Chaos stall: the connection is not polled until this instant.
    Clock::time_point stalled_until{};
  };
  uint64_t next_conn_id = 1;
  std::map<uint64_t, std::shared_ptr<Conn>> conns;

  Impl(ServerCore& c, Endpoint e, SocketOptions so)
      : core(c),
        ep(std::move(e)),
        sopts(so),
        chaos(so.chaos, so.chaos_seed) {}

  ~Impl() {
    for (auto& [id, conn] : conns)
      if (conn->fd >= 0) ::close(conn->fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (ep.kind == Endpoint::Kind::Unix) ::unlink(ep.path.c_str());
  }

  void enqueue_response(Conn& c, const std::string& payload) {
    c.outbuf += encode_frame(payload);
  }

  /// Move in-order completions from `ready` into the write buffer.
  void drain_ready(Conn& c) {
    for (auto it = c.ready.find(c.next_write); it != c.ready.end();
         it = c.ready.find(c.next_write)) {
      enqueue_response(c, it->second);
      c.ready.erase(it);
      ++c.next_write;
      --c.inflight;
    }
  }

  void flush(uint64_t id, Conn& c) {
    while (c.outoff < c.outbuf.size()) {
      const size_t avail = c.outbuf.size() - c.outoff;
      size_t cap = avail;
      if (chaos.enabled()) {
        if (chaos.reset_conn()) {  // mid-frame RST on the write side
          close_conn(id);
          return;
        }
        cap = chaos.write_cap(avail);
      }
      // MSG_NOSIGNAL for the same reason as write_fully: dying peers are
      // an errno here, never a process-wide signal.
      const ssize_t w =
          ::send(c.fd, c.outbuf.data() + c.outoff, cap, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(id);  // peer vanished mid-response
        return;
      }
      c.outoff += static_cast<size_t>(w);
      // A chaos-truncated write behaves like EAGAIN: stop here and let
      // POLLOUT resume the flush, exercising the offset machinery exactly
      // the way a congested peer would.
      if (cap < avail) return;
    }
    // Fully drained: compact.  The written prefix is tracked as an offset,
    // not erased per write — erasing the front of a large buffer on every
    // partial write to a slow client would be quadratic.
    c.outbuf.clear();
    c.outoff = 0;
    // Close only once everything owed has been written: responses still in
    // flight (queued or waiting for in-order drain) count as owed, so a
    // shutdown acked via the done queue is flushed before the fd closes.
    if (c.closing && c.inflight == 0) {
      if (c.shutdown_after) stop.store(true);
      close_conn(id);
    }
  }

  void close_conn(uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    if (it->second->fd >= 0) ::close(it->second->fd);
    it->second->fd = -1;
    conns.erase(it);
  }

  /// Answer `seq` on the loop thread through the ordinary in-order drain —
  /// no completion-queue round-trip.  The caller flushes.
  void answer_inline(Conn& c, uint64_t seq, const Json& resp) {
    c.ready.emplace(seq, resp.str(-1));
    drain_ready(c);
  }

  void handle_payload(uint64_t id, const std::shared_ptr<Conn>& conn,
                      const std::string& payload) {
    const uint64_t seq = conn->next_seq++;
    ++conn->inflight;
    Json req;
    try {
      req = Json::parse(payload);
    } catch (const JsonParseError& e) {
      // Malformed JSON fails this one request; framing is still intact.
      answer_inline(*conn, seq, core.reject_malformed(e));
      return;
    }
    std::string op;
    if (req.is_object()) {
      if (const Json* opv = req.find("op"); opv && opv->is_string())
        op = opv->as_string();
    }
    if (op == "shutdown" || op == "ping") {
      // Cheap control ops answer inline on the loop thread — shutdown must
      // not sit in a queue behind the very work it is trying to stop, and
      // ping must answer even while draining (it is how the soak verifies
      // the daemon never wedges).
      Json resp = core.handle(req);
      answer_inline(*conn, seq, resp);
      if (op == "shutdown") {
        conn->closing = true;
        conn->shutdown_after = true;
      }
      return;
    }
    if (draining) {
      // Fail-fast: no new work enters the scheduler once a drain began.
      Json resp = retriable_error(code::kDraining,
                                  "daemon is draining; retry elsewhere");
      echo_id(req, resp);
      answer_inline(*conn, seq, resp);
      if (trace::enabled()) trace::count("serve.draining_rejected");
      return;
    }
    if (sopts.max_inflight_per_conn > 0 &&
        conn->inflight >
            static_cast<uint64_t>(sopts.max_inflight_per_conn)) {
      // Pipelining past the per-connection cap: shed this request (the
      // newest) with an immediate in-order answer; admitted ones proceed.
      Json resp = retriable_error(
          code::kOverloaded,
          "per-connection in-flight cap (" +
              std::to_string(sopts.max_inflight_per_conn) + ") reached");
      echo_id(req, resp);
      answer_inline(*conn, seq, resp);
      if (trace::enabled()) trace::count("serve.inflight_shed");
      return;
    }
    // End-to-end deadline: minted here (frame decode time) so queue wait
    // and execution burn the same budget.  The shared_ptr keeps the token
    // alive for the job lambda regardless of how the request ends;
    // ServerCore borrows it only inside the call.
    std::shared_ptr<CancelToken> token;
    if (const Json* dl = req.find("deadline_ms");
        dl && dl->is_number() && dl->as_double() > 0) {
      token = std::make_shared<CancelToken>(dl->as_double());
    }
    // A run or compile whose entry is resident costs microseconds: answer
    // it here rather than pay two thread wake-ups and a pipe round trip.
    // Everything that could compile, tune or wait goes to the scheduler.
    if (std::optional<Json> resp = core.try_handle_cached(req, token.get())) {
      answer_inline(*conn, seq, *resp);
      return;
    }
    // The request deadline bounds the queue wait for every priority.
    const double timeout = token ? token->remaining_ms() : 0;
    // Jobs capture the shared queue and the core — never Impl, which a
    // still-running job may outlive.  The drop hook substitutes a timeout /
    // overloaded / cancelled response so the connection's in-order writer
    // never stalls on a job that was dropped from the queue; of the request
    // it needs only the id to echo.
    std::shared_ptr<DoneQueue> q = dq;
    ServerCore* corep = &core;
    std::optional<Json> rid;
    if (const Json* v = req.find("id")) rid = *v;
    core.scheduler().submit(
        [q, corep, id, seq, req = std::move(req), token] {
          q->push(id, seq, corep->handle(req, token.get()).str(-1));
        },
        ServerCore::priority_for(op), timeout,
        [q, id, seq, rid = std::move(rid)](JobState st) {
          const char* c = st == JobState::Expired    ? code::kTimeout
                          : st == JobState::Shed     ? code::kOverloaded
                                                     : code::kCancelled;
          // All three drops are "the daemon could not get to it": shed and
          // expired are load conditions, cancelled happens at teardown —
          // retriable against a healthy (or another) instance either way.
          Json resp = retriable_error(
              c, std::string("request ") + job_state_name(st) +
                     " before execution");
          if (rid) resp.set("id", *rid);
          q->push(id, seq, resp.str(-1));
        });
  }

  /// One read per poll round, at most one buffer's worth: requests answered
  /// inline free their in-flight slots at once, so reading until EAGAIN
  /// would let one pipelining client hold the loop.  Whatever is left in
  /// the kernel buffer keeps the fd readable for the next round.
  void on_readable(uint64_t id, const std::shared_ptr<Conn>& conn) {
    char buf[64 * 1024];
    size_t want = sizeof(buf);
    if (chaos.enabled()) {
      if (chaos.reset_conn()) {  // mid-stream RST: visibly severed
        close_conn(id);
        return;
      }
      if (const double us = chaos.stall_us(); us > 0) {
        // Go quiet: leave what arrived in the kernel buffer and revisit
        // after the stall (the loop skips stalled connections).
        conn->stalled_until =
            Clock::now() + std::chrono::microseconds(static_cast<int64_t>(us));
        flush(id, *conn);
        return;
      }
      want = chaos.read_cap(want);
    }
    ssize_t n;
    do {
      n = ::read(conn->fd, buf, want);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        close_conn(id);
        return;
      }
    } else if (n == 0) {  // peer closed; flush what we owe, then drop
      conn->closing = true;
      if (conn->outbuf.empty() && conn->inflight == 0) close_conn(id);
      return;
    } else {
      try {
        // Both feed() and next() can surface a poisoned length prefix:
        // feed() when it heads the buffer, next() when draining a valid
        // frame exposes it.
        conn->reader.feed(buf, static_cast<size_t>(n));
        std::string payload;
        while (conn->reader.next(&payload)) handle_payload(id, conn, payload);
      } catch (const ProtocolError& e) {
        // Framing is poisoned: answer once, then close after the flush.
        // The error takes the connection's next sequence number and goes
        // through the ordinary in-order drain, so it is written *after*
        // every response still in flight — the in-order guarantee holds
        // through the connection's final frames.
        const uint64_t seq = conn->next_seq++;
        ++conn->inflight;
        conn->ready.emplace(seq,
                            error_response(code::kProtocol, e.what()).str(-1));
        conn->closing = true;
        drain_ready(*conn);
      }
    }
    flush(id, *conn);
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors: the listen fd stays level-triggered
          // readable, so polling it again immediately would spin.  Pause
          // accepting briefly; pending connections wait in the backlog.
          accept_pause_until =
              Clock::now() + std::chrono::milliseconds(100);
          if (trace::enabled()) trace::count("serve.accept_emfile");
        }
        break;  // EAGAIN or transient accept failure: back to poll
      }
      if (chaos.enabled() && chaos.accept_fail()) {
        // Chaos: the peer died during the handshake.
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      if (ep.kind == Endpoint::Kind::Tcp) {
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      if (sopts.max_conns > 0 &&
          conns.size() >= static_cast<size_t>(sopts.max_conns)) {
        // Over the connection cap: the peer gets one structured retriable
        // "overloaded" frame, then the connection closes — through the
        // ordinary outbuf/flush path so a slow reader still receives it.
        conn->outbuf = encode_frame(
            retriable_error(code::kOverloaded,
                            "connection limit (" +
                                std::to_string(sopts.max_conns) +
                                ") reached; retry later")
                .str(-1));
        conn->closing = true;
        if (trace::enabled()) trace::count("serve.conns_rejected");
        const uint64_t id = next_conn_id++;
        conns.emplace(id, conn);
        flush(id, *conn);
        continue;
      }
      conns.emplace(next_conn_id++, std::move(conn));
    }
  }

  void drain_done() {
    std::deque<std::tuple<uint64_t, uint64_t, std::string>> batch;
    {
      sync::MutexLock lk(dq->mu);
      batch.swap(dq->q);
    }
    for (auto& [conn_id, seq, payload] : batch) {
      auto it = conns.find(conn_id);
      if (it == conns.end()) continue;  // connection already went away
      Conn& c = *it->second;
      c.ready.emplace(seq, std::move(payload));
      drain_ready(c);
      flush(conn_id, c);
    }
  }

  /// Flip into draining: close the listen socket, arm the deadline, mark
  /// every connection closing (flush-what-is-owed-then-close) and reap the
  /// ones that owe nothing right away.
  void begin_drain(Clock::time_point now) {
    draining = true;
    dstats.requested = true;
    drain_deadline = deadline_after_ms(now, sopts.drain_ms);
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    if (trace::enabled()) trace::count("serve.drains");
    std::vector<uint64_t> all;
    all.reserve(conns.size());
    for (auto& [id, conn] : conns) all.push_back(id);
    for (const uint64_t id : all) {
      auto it = conns.find(id);
      if (it == conns.end()) continue;
      it->second->closing = true;
      flush(id, *it->second);  // reaps idle connections immediately
    }
  }

  void loop() {
    std::vector<pollfd> pfds;
    std::vector<uint64_t> ids;
    while (!stop.load()) {
      const Clock::time_point now = Clock::now();
      if (drain_req.load(std::memory_order_relaxed) && !draining)
        begin_drain(now);
      if (draining) {
        if (conns.empty()) {
          dstats.clean = true;
          break;
        }
        if (now >= drain_deadline) {
          // Out of patience: sever the stragglers.  Their scheduler jobs
          // may still complete; the completions land in the done queue and
          // are dropped there (the connection is gone).
          dstats.forced_conns = static_cast<int64_t>(conns.size());
          std::vector<uint64_t> left;
          left.reserve(conns.size());
          for (auto& [id, conn] : conns) left.push_back(id);
          for (const uint64_t id : left) close_conn(id);
          break;
        }
      }

      pfds.clear();
      ids.clear();
      int timeout = -1;
      const auto consider = [&](Clock::time_point tp) {
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(tp - now)
                .count();
        const int t = static_cast<int>(std::clamp<int64_t>(ms + 1, 1, 60000));
        timeout = timeout < 0 ? t : std::min(timeout, t);
      };

      int listen_idx = -1;
      if (!draining) {
        if (now < accept_pause_until) {
          consider(accept_pause_until);  // resume accepting on schedule
        } else {
          listen_idx = static_cast<int>(pfds.size());
          pfds.push_back({listen_fd, POLLIN, 0});
        }
      } else {
        consider(drain_deadline);
      }
      const size_t wake_idx = pfds.size();
      pfds.push_back({dq->wake_r, POLLIN, 0});
      const size_t base = pfds.size();
      for (auto& [id, conn] : conns) {
        if (conn->stalled_until > now) {
          // Chaos-stalled: not polled at all until the stall elapses.
          consider(conn->stalled_until);
          continue;
        }
        short ev = POLLIN;
        if (!conn->outbuf.empty()) ev |= POLLOUT;
        pfds.push_back({conn->fd, ev, 0});
        ids.push_back(id);
      }
      const int rc = ::poll(pfds.data(), pfds.size(), timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        sys_fail("poll");
      }
      if (pfds[wake_idx].revents & POLLIN) {
        char buf[256];
        while (::read(dq->wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      drain_done();
      if (listen_idx >= 0 && (pfds[listen_idx].revents & POLLIN))
        accept_ready();
      for (size_t i = 0; i < ids.size(); ++i) {
        const pollfd& p = pfds[i + base];
        auto it = conns.find(ids[i]);
        if (it == conns.end()) continue;
        std::shared_ptr<Conn> conn = it->second;
        if (p.revents & (POLLERR | POLLNVAL)) {
          close_conn(ids[i]);
          continue;
        }
        if (p.revents & POLLOUT) flush(ids[i], *conn);
        if (conns.contains(ids[i]) && (p.revents & (POLLIN | POLLHUP)))
          on_readable(ids[i], conn);
      }
      // A stall that just elapsed may have left a full outbuf unpolled;
      // give such connections a flush kick so progress never depends on
      // fresh traffic arriving.  (Ids snapshotted first: flush may close.)
      std::vector<uint64_t> unstalled;
      for (auto& [id, conn] : conns) {
        if (conn->stalled_until != Clock::time_point{} &&
            conn->stalled_until <= now)
          unstalled.push_back(id);
      }
      for (const uint64_t id : unstalled) {
        auto it = conns.find(id);
        if (it == conns.end()) continue;
        it->second->stalled_until = Clock::time_point{};
        flush(id, *it->second);
      }
    }
  }
};

ServeSocket::ServeSocket(ServerCore& core, const Endpoint& ep,
                         SocketOptions sopts)
    : impl_(std::make_unique<Impl>(core, ep, sopts)) {
  if (ep.kind == Endpoint::Kind::Unix) {
    ::unlink(ep.path.c_str());
    impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (impl_->listen_fd < 0) sys_fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path))
      throw IoError("unix socket path too long: " + ep.path);
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      sys_fail("bind(" + ep.path + ")");
  } else {
    impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (impl_->listen_fd < 0) sys_fail("socket(AF_INET)");
    const int one = 1;
    setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    const std::string host = ep.host.empty() ? "127.0.0.1" : ep.host;
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
      throw IoError("bad tcp host (numeric IPv4 required): " + host);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      sys_fail("bind(port " + std::to_string(ep.port) + ")");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0)
      bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(impl_->listen_fd, 64) < 0) sys_fail("listen");
  set_nonblocking(impl_->listen_fd);
}

ServeSocket::~ServeSocket() = default;

void ServeSocket::serve_forever() { impl_->loop(); }

void ServeSocket::stop() {
  impl_->stop.store(true);
  impl_->dq->wake();
}

void ServeSocket::request_drain() {
  // Async-signal-safe: one atomic store plus one write(2) on the self-pipe.
  impl_->drain_req.store(true, std::memory_order_relaxed);
  impl_->dq->wake();
}

const DrainStats& ServeSocket::drain_stats() const { return impl_->dstats; }

const NetChaos::Counts& ServeSocket::chaos_counts() const {
  return impl_->chaos.counts();
}

// ---------------------------------------------------------------------------
// Client.

ServeClient::ServeClient(const Endpoint& ep, double timeout_ms)
    : fd_(connect_endpoint(ep, timeout_ms)), timeout_ms_(timeout_ms) {}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ServeClient::call_text(const std::string& payload) {
  const std::string frame = encode_frame(payload);
  // A server may answer-and-close before our request even lands — the
  // over-capacity rejection does exactly that.  An EPIPE/RST on the send
  // must not discard the parting frame already sitting in our receive
  // buffer: fall through to the read, and only if nothing arrives either
  // rethrow the transport error.
  std::exception_ptr send_err;
  try {
    write_fully(fd_, frame.data(), frame.size());
  } catch (const IoError&) {
    send_err = std::current_exception();
  }
  std::string resp;
  if (send_err) {
    try {
      char buf[64 * 1024];
      for (;;) {
        if (reader_.next(&resp)) return resp;
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        reader_.feed(buf, static_cast<size_t>(n));
      }
    } catch (const ProtocolError&) {
      // Poisoned framing on a dead connection: the send error tells the
      // truer story.
    }
    std::rethrow_exception(send_err);
  }
  const auto start = std::chrono::steady_clock::now();
  while (!reader_.next(&resp)) {
    if (timeout_ms_ > 0) {
      // The deadline covers the whole response, not each read: a dribbling
      // server cannot stretch one call forever by staying barely alive.
      const double left =
          timeout_ms_ - std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (left <= 0)
        throw IoError("timed out waiting for response (" +
                      std::to_string(poll_ms(timeout_ms_)) + "ms)");
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, poll_ms(left));
      if (rc == 0) continue;  // re-check the deadline
      if (rc < 0) {
        if (errno == EINTR) continue;
        sys_fail("poll(read)");
      }
    }
    char buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("read");
    }
    if (n == 0) throw IoError("server closed connection mid-response");
    reader_.feed(buf, static_cast<size_t>(n));
  }
  return resp;
}

Json ServeClient::call(const Json& request) {
  return Json::parse(call_text(request.str(-1)));
}

}  // namespace incflat::serve
