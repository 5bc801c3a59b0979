// Unit + integration tests: the compile-and-serve daemon (src/serve/*) —
// frame codec edge cases, LRU plan cache semantics, the priority
// job scheduler (promotion, cancellation, expiry, drop notification),
// ServerCore request handling (concurrent runs on one key, per-request
// fault streams, the tune op), the socket front-end over unix and tcp
// endpoints, and the property that cache-served plans answer
// bit-identically to freshly compiled ones.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/serve/chaos.h"
#include "src/serve/net.h"
#include "src/serve/plan_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/support/error.h"
#include "src/support/json.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

using serve::CacheStats;
using serve::CacheValue;
using serve::FrameReader;
using serve::JobPriority;
using serve::JobScheduler;
using serve::JobState;
using serve::PlanCache;
using serve::ProtocolError;
using serve::ServeClient;
using serve::ServeOptions;
using serve::ServerCore;
using serve::ServeSocket;

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frames, RoundTripAndByteDribble) {
  const std::string payload = "{\"op\":\"ping\"}";
  const std::string frame = serve::encode_frame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);

  FrameReader r;
  std::string out;
  // Feed one byte at a time: no complete frame until the very last byte.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    r.feed(frame.data() + i, 1);
    EXPECT_FALSE(r.next(&out));
  }
  r.feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(r.next(&out));
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(r.next(&out));
  EXPECT_EQ(r.pending(), 0u);
}

TEST(Frames, ManyFramesInOneFeed) {
  std::string stream;
  for (int i = 0; i < 5; ++i)
    stream += serve::encode_frame("payload-" + std::to_string(i));
  FrameReader r;
  r.feed(stream);
  std::string out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.next(&out));
    EXPECT_EQ(out, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(r.next(&out));
}

TEST(Frames, EmptyPayloadIsAValidFrame) {
  FrameReader r;
  r.feed(serve::encode_frame(""));
  std::string out = "sentinel";
  ASSERT_TRUE(r.next(&out));
  EXPECT_EQ(out, "");
}

TEST(Frames, OversizedLengthPrefixPoisonsBeforeBuffering) {
  // A hostile 512 MiB length prefix must throw on the *header*, before any
  // body bytes are accepted or allocated.
  FrameReader r(1024);
  const char hdr[4] = {0x20, 0x00, 0x00, 0x00};  // 0x20000000 big-endian
  EXPECT_THROW(r.feed(hdr, 4), ProtocolError);
  // The cap is inclusive: exactly max_payload is fine.
  FrameReader ok(8);
  ok.feed(serve::encode_frame("12345678"));
  std::string out;
  ASSERT_TRUE(ok.next(&out));
  EXPECT_EQ(out, "12345678");
  FrameReader over(7);
  EXPECT_THROW(over.feed(serve::encode_frame("12345678")), ProtocolError);
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

struct Blob : CacheValue {
  explicit Blob(int v) : v(v) {}
  int v;
};

std::shared_ptr<Blob> blob(int v) { return std::make_shared<Blob>(v); }

TEST(Cache, HitMissCountersAndUncountedProbes) {
  PlanCache cache(0);
  EXPECT_EQ(cache.find("a"), nullptr);
  cache.insert("a", blob(1), 100);
  EXPECT_NE(cache.find("a"), nullptr);
  // Internal probes must not move the counters.
  EXPECT_NE(cache.find("a", /*count=*/false), nullptr);
  EXPECT_EQ(cache.find("b", /*count=*/false), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 100u);
}

TEST(Cache, EvictsFromTheLruTail) {
  PlanCache cache(300);
  cache.insert("a", blob(1), 100);
  cache.insert("b", blob(2), 100);
  cache.insert("c", blob(3), 100);
  // Touch "a" so "b" is now least-recently-used.
  EXPECT_NE(cache.find("a"), nullptr);
  cache.insert("d", blob(4), 100);  // needs room: evicts exactly "b"
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  EXPECT_NE(cache.find("d"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_LE(s.bytes, 300u);
}

TEST(Cache, OversizedValueIsAdmittedAlone) {
  PlanCache cache(100);
  cache.insert("small", blob(1), 60);
  // Larger than the whole budget: everything else is evicted, but the new
  // entry is admitted (refusing it would make the hot plan uncacheable).
  cache.insert("huge", blob(2), 500);
  EXPECT_EQ(cache.find("small"), nullptr);
  EXPECT_NE(cache.find("huge"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(Cache, FirstInserterWinsTheCompileRace) {
  PlanCache cache(0);
  auto first = blob(1);
  auto loser = blob(2);
  EXPECT_EQ(cache.insert("k", first, 10).get(), first.get());
  // The racing second inserter gets the existing entry back and must adopt
  // it — one entry per key.
  EXPECT_EQ(cache.insert("k", loser, 10).get(), first.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  auto got = std::static_pointer_cast<Blob>(cache.find("k"));
  EXPECT_EQ(got->v, 1);
}

TEST(Cache, EvictedEntrySurvivesWhileReferenced) {
  PlanCache cache(100);
  cache.insert("a", blob(7), 100);
  auto held = std::static_pointer_cast<Blob>(cache.find("a"));
  cache.insert("b", blob(8), 100);  // evicts "a"
  EXPECT_EQ(cache.find("a"), nullptr);
  // The in-flight reference still works: eviction drops only the cache's ref.
  EXPECT_EQ(held->v, 7);
}

TEST(Cache, BudgetBoundsTheWholeCache) {
  // The budget is one bound over every entry: entries that fit it together
  // all stay resident, whatever their keys.
  PlanCache cache(800);
  for (int i = 0; i < 8; ++i)
    cache.insert("k" + std::to_string(i), blob(i), 100);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 8u);
  EXPECT_EQ(s.bytes, 800u);
  for (int i = 0; i < 8; ++i)
    EXPECT_NE(cache.find("k" + std::to_string(i)), nullptr) << i;
}

TEST(Cache, ConcurrentChurnKeepsBudget) {
  PlanCache cache(8 * 1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k";
        key += std::to_string(t);
        key += "-";
        key += std::to_string(i % 50);
        if (!cache.find(key)) cache.insert(key, blob(i), 128);
      }
    });
  }
  for (auto& t : threads) t.join();
  const CacheStats s = cache.stats();
  EXPECT_LE(s.bytes, 8u * 1024u);
  EXPECT_EQ(s.hits + s.misses, 4 * 500);
}

// ---------------------------------------------------------------------------
// Job scheduler
// ---------------------------------------------------------------------------

/// Yields until `done()` holds; fails the test after 30 s instead of hanging
/// it.
template <class Pred>
void spin_until(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "condition still false after 30 s";
      return;
    }
    std::this_thread::yield();
  }
}

// Each test below declares what its jobs touch before the scheduler, so the
// scheduler's destructor joins the workers before any of it dies.

TEST(Scheduler, DrainsInPriorityOrder) {
  std::mutex mu;
  std::vector<int> order;
  std::atomic<bool> release{false};
  std::latch done(5);
  JobScheduler sched(1, /*promote_after_ms=*/0);
  // Occupy the single worker so the queue builds up behind it.
  sched.submit([&] {
    while (!release.load()) std::this_thread::yield();
    done.count_down();
  });
  auto rec = [&](int tag) {
    return [&, tag] {
      {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(tag);
      }
      done.count_down();
    };
  };
  sched.submit(rec(2), JobPriority::Low);
  sched.submit(rec(1), JobPriority::Normal);
  sched.submit(rec(0), JobPriority::High);
  sched.submit(rec(10), JobPriority::High);
  release.store(true);
  done.wait();
  // High jobs first (FIFO within a class), then Normal, then Low.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 2}));
}

TEST(Scheduler, QueueTimeoutExpiresAndNotifiesDrop) {
  std::atomic<bool> release{false};
  std::atomic<int> dropped{0};
  JobState drop_state = JobState::Cancelled;
  std::latch resolved(1);
  JobScheduler sched(1, /*promote_after_ms=*/0);
  sched.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  sched.submit([&] { ADD_FAILURE() << "expired job must not run"; },
               JobPriority::Low, /*queue_timeout_ms=*/5, [&](JobState st) {
                 drop_state = st;
                 ++dropped;
                 resolved.count_down();
               });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  resolved.wait();  // the worker drops it on its next scan
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(drop_state, JobState::Expired);
  EXPECT_EQ(sched.stats().expired, 1);
}

TEST(Scheduler, TimeoutPastTheClockRangeIsNoTimeout) {
  // The steady clock counts int64 nanoseconds: a queue timeout of 1e13 ms
  // or more (a request deadline with none left passes about 1e18 ms) lies
  // past its range.  Such a job never expires; it runs.
  std::atomic<int> dropped{0};
  const std::vector<double> far{1e13, 1e18, 1e300,
                                std::numeric_limits<double>::infinity()};
  std::latch resolved(static_cast<std::ptrdiff_t>(far.size()));
  JobScheduler sched(1, /*promote_after_ms=*/0);
  for (const double ms : far) {
    sched.submit([&] { resolved.count_down(); }, JobPriority::Normal, ms,
                 [&](JobState) {
                   ++dropped;
                   resolved.count_down();
                 });
  }
  resolved.wait();
  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(sched.stats().expired, 0);
}

TEST(Scheduler, AgePromotionBeatsStarvation) {
  // One worker, promotion after 10 ms.  A Low job enqueued first and aged
  // past the threshold is drained ahead of a fresh High job.
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<char> order;
  std::latch done(2);
  JobScheduler sched(1, /*promote_after_ms=*/10);
  sched.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  auto rec = [&](char tag) {
    return [&, tag] {
      {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(tag);
      }
      done.count_down();
    };
  };
  sched.submit(rec('L'), JobPriority::Low);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Aged 40 ms: Low promotes through Normal to High, tying the fresh High
  // job's class — and it is older, so it drains first.
  sched.submit(rec('H'), JobPriority::High);
  release.store(true);
  done.wait();
  EXPECT_EQ(order, (std::vector<char>{'L', 'H'}));
}

TEST(Scheduler, ThrowingJobCountsFailedAndWorkerSurvives) {
  // An exception stays inside the scheduler: the job counts as failed and
  // the only worker goes on to run the next job.
  std::latch ran(1);
  JobScheduler sched(1);
  sched.submit([] { throw std::invalid_argument("job boom"); });
  sched.submit([&] { ran.count_down(); });
  ran.wait();
  const serve::SchedulerStats st = sched.stats();
  EXPECT_EQ(st.failed, 1);
  EXPECT_GE(st.executed, 1);
}

TEST(Scheduler, DestructorCancelsQueuedJobs) {
  std::atomic<int> ran{0};
  std::atomic<int> dropped{0};
  {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    JobScheduler sched(1);
    sched.submit([&] {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    // Wait for the gate to occupy the worker so the 8 jobs genuinely queue.
    while (!started.load()) std::this_thread::yield();
    for (int i = 0; i < 8; ++i)
      sched.submit([&] { ++ran; }, JobPriority::Normal, 0,
                   [&](JobState) { ++dropped; });
    release.store(true);
    // Destructor: the running gate finishes; each queued job either gets a
    // worker slot before the drain or reports its drop — never silence.
  }
  EXPECT_EQ(ran.load() + dropped.load(), 8);
}

TEST(Scheduler, QueueCapShedsNewestWithDrop) {
  // One worker occupied by a gate, cap 2: two jobs fill the Normal queue
  // and the third is rejected-newest — its DropFn fires with Shed before
  // submit even returns, and it never runs.
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  std::atomic<int> dropped{0};
  JobState drop_state = JobState::Cancelled;
  std::latch done(2);
  JobScheduler sched(1, /*promote_after_ms=*/1000.0, /*queue_cap=*/2);
  sched.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 2; ++i)
    sched.submit([&] {
      ++ran;
      done.count_down();
    });
  sched.submit([&] { ADD_FAILURE() << "shed job must not run"; },
               JobPriority::Normal, 0, [&](JobState st) {
                 drop_state = st;
                 ++dropped;
               });
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(drop_state, JobState::Shed);
  release.store(true);
  done.wait();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(sched.stats().shed, 1);
  EXPECT_EQ(sched.stats().submitted, 4);
}

TEST(Scheduler, PickWidthClampsZeroHardwareToOne) {
  // hardware_concurrency() == 0 means "not computable"; the derived width
  // must still be a valid worker count, never 0 or negative.
  EXPECT_EQ(JobScheduler::pick_width(0, 0u), 1);
  EXPECT_EQ(JobScheduler::pick_width(-3, 0u), 1);
  EXPECT_EQ(JobScheduler::pick_width(0, 1u), 1);
  EXPECT_EQ(JobScheduler::pick_width(0, 4u), 4);
  EXPECT_EQ(JobScheduler::pick_width(0, 64u), 8);   // capped at 8
  EXPECT_EQ(JobScheduler::pick_width(0, ~0u), 8);   // absurd platform value
  EXPECT_EQ(JobScheduler::pick_width(6, 0u), 6);    // explicit request wins
}

TEST(Scheduler, ZeroHardwareWidthStillRunsJobs) {
  // The degraded width is one worker, which still drains every job.
  std::atomic<int> ran{0};
  std::latch done(16);
  JobScheduler sched(JobScheduler::pick_width(0, 0u));
  ASSERT_EQ(sched.width(), 1);
  for (int i = 0; i < 16; ++i) {
    sched.submit([&] {
      ++ran;
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(SchedulerStress, ConcurrentEnqueueExpireExactlyOnceSeeded) {
  // Several producers enqueue jobs with sub-millisecond queue timeouts
  // while two workers drain concurrently, so expiry races execution on
  // every job.  Contracts: each job resolves to exactly one of
  // {ran, dropped} (the DropFn fires exactly once, never alongside the
  // body), and the scheduler's expired/executed counters match the drops
  // and bodies observed.
  constexpr int kThreads = 4, kPerThread = 64;
  constexpr int kN = kThreads * kPerThread;
  std::vector<std::atomic<int>> events(kN);
  std::atomic<int64_t> drops{0};
  JobScheduler sched(2, /*promote_after_ms=*/1000.0);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::mt19937_64 rng(0xeaf00dULL + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const int ix = t * kPerThread + i;
        const double tmo = 0.05 + static_cast<double>(rng() % 30) / 20.0;
        sched.submit(
            [&events, ix] {
              ++events[ix];
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            },
            JobPriority::Normal, tmo, [&events, &drops, ix](JobState st) {
              EXPECT_EQ(st, JobState::Expired);
              ++events[ix];
              ++drops;
            });
      }
    });
  }
  for (auto& p : producers) p.join();
  // Wait until the scheduler has accounted for every job.
  spin_until([&] {
    const serve::SchedulerStats st = sched.stats();
    return st.executed + st.expired >= kN;
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(events[i].load(), 1)
        << "job " << i << " fired its body/drop " << events[i].load()
        << " times";
  }
  const serve::SchedulerStats st = sched.stats();
  EXPECT_EQ(st.expired, drops.load());
  EXPECT_EQ(st.executed, kN - drops.load());
}

// ---------------------------------------------------------------------------
// Network chaos oracle
// ---------------------------------------------------------------------------

TEST(Chaos, ParseSpecAllShorthandAndRoundTrip) {
  EXPECT_FALSE(serve::parse_net_chaos("").enabled());
  EXPECT_FALSE(serve::parse_net_chaos("off").enabled());
  const serve::NetChaosSpec s =
      serve::parse_net_chaos("dribble=0.2,reset=0.01,stall-us=500");
  EXPECT_DOUBLE_EQ(s.dribble, 0.2);
  EXPECT_DOUBLE_EQ(s.reset, 0.01);
  EXPECT_DOUBLE_EQ(s.stall_us, 500);
  EXPECT_DOUBLE_EQ(s.partial_write, 0);
  EXPECT_TRUE(s.enabled());
  // all=R: R for the re-chunking kinds, R/10 for the destructive ones.
  const serve::NetChaosSpec all = serve::parse_net_chaos("all=0.1");
  EXPECT_DOUBLE_EQ(all.dribble, 0.1);
  EXPECT_DOUBLE_EQ(all.partial_write, 0.1);
  EXPECT_DOUBLE_EQ(all.stall, 0.01);
  EXPECT_DOUBLE_EQ(all.reset, 0.01);
  EXPECT_DOUBLE_EQ(all.accept_fail, 0.01);
  const serve::NetChaosSpec rt =
      serve::parse_net_chaos(serve::net_chaos_str(all));
  EXPECT_DOUBLE_EQ(rt.dribble, all.dribble);
  EXPECT_DOUBLE_EQ(rt.stall, all.stall);
  EXPECT_DOUBLE_EQ(rt.reset, all.reset);
  EXPECT_THROW(serve::parse_net_chaos("bogus=1"), IoError);
  EXPECT_THROW(serve::parse_net_chaos("dribble=2"), IoError);
  EXPECT_THROW(serve::parse_net_chaos("dribble"), IoError);
  EXPECT_THROW(serve::parse_net_chaos("dribble=nan"), IoError);
  EXPECT_THROW(serve::parse_net_chaos("stall-us=nan"), IoError);
}

TEST(Chaos, SeedDeterminismAndCapBounds) {
  const serve::NetChaosSpec spec = serve::parse_net_chaos("all=0.3");
  serve::NetChaos a(spec, 42), b(spec, 42);
  for (int i = 0; i < 200; ++i) {
    const size_t ra = a.read_cap(4096), rb = b.read_cap(4096);
    EXPECT_EQ(ra, rb);
    EXPECT_GE(ra, 1u);  // a zero-byte read would read as EOF
    EXPECT_LE(ra, 4096u);
    const size_t wa = a.write_cap(4096), wb = b.write_cap(4096);
    EXPECT_EQ(wa, wb);
    EXPECT_GE(wa, 1u);  // partial writes always make progress
    EXPECT_LE(wa, 4096u);
    EXPECT_EQ(a.reset_conn(), b.reset_conn());
    EXPECT_DOUBLE_EQ(a.stall_us(), b.stall_us());
    EXPECT_EQ(a.accept_fail(), b.accept_fail());
  }
  EXPECT_EQ(a.counts().total(), b.counts().total());
  EXPECT_GT(a.counts().total(), 0);  // 0.3 over 200 draws: must have fired
}

TEST(Chaos, DisabledPlanIsANoop) {
  serve::NetChaos off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.read_cap(100), 100u);
  EXPECT_EQ(off.write_cap(100), 100u);
  EXPECT_FALSE(off.reset_conn());
  EXPECT_DOUBLE_EQ(off.stall_us(), 0);
  EXPECT_FALSE(off.accept_fail());
  EXPECT_EQ(off.counts().total(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end deadlines
// ---------------------------------------------------------------------------

TEST(Deadline, CancelTokenExpiryAndCancel) {
  CancelToken unbounded;
  EXPECT_FALSE(unbounded.expired());
  EXPECT_GT(unbounded.remaining_ms(), 1e17);  // effectively infinite
  CancelToken soon(0.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(soon.expired());
  EXPECT_LE(soon.remaining_ms(), 0.0);
  CancelToken c;
  c.cancel();
  EXPECT_TRUE(c.expired());
  EXPECT_LT(c.remaining_ms(), 0);
}

// ---------------------------------------------------------------------------
// ServerCore: ops, errors, concurrency
// ---------------------------------------------------------------------------

ServeOptions small_opts() {
  ServeOptions o;
  o.workers = 2;
  return o;
}

Json run_req(const std::string& b, const std::string& d) {
  Json r = Json::object();
  r.set("op", "run");
  r.set("benchmark", b);
  r.set("dataset", d);
  return r;
}

TEST(Server, PingStatsAndIdEcho) {
  ServerCore core(small_opts());
  Json ping = Json::object();
  ping.set("op", "ping");
  ping.set("id", 42);
  const Json resp = core.handle(ping);
  EXPECT_TRUE(resp.get("ok").as_bool());
  EXPECT_EQ(resp.get("id").as_double(), 42.0);
  const Json stats = core.handle(Json::object().set("op", "stats"));
  EXPECT_TRUE(stats.get("ok").as_bool());
  EXPECT_TRUE(stats.get("cache").is_object());
  EXPECT_TRUE(stats.get("scheduler").is_object());
  // The snapshot covers requests completed *before* this one: just the ping.
  EXPECT_EQ(stats.get("requests").get("total").as_double(), 1.0);
  const Json again = core.handle(Json::object().set("op", "stats"));
  EXPECT_EQ(again.get("requests").get("total").as_double(), 2.0);
  EXPECT_EQ(again.get("requests").get("stats").as_double(), 1.0);
}

TEST(Server, ErrorResponsesCarryCodes) {
  ServerCore core(small_opts());
  Json bad = Json::object();
  bad.set("op", "frobnicate");
  EXPECT_EQ(core.handle(bad).get("code").as_string(), "unknown-op");
  Json no_bench = Json::object();
  no_bench.set("op", "compile");
  EXPECT_EQ(core.handle(no_bench).get("code").as_string(), "bad-request");
  Json unknown = Json::object();
  unknown.set("op", "compile");
  unknown.set("benchmark", "no-such-benchmark");
  const Json unknown_resp = core.handle(unknown);
  EXPECT_EQ(unknown_resp.get("code").as_string(), "bad-request");
  // A user-facing error names the benchmark, not a source location.
  EXPECT_EQ(unknown_resp.get("error").as_string(),
            "unknown benchmark: no-such-benchmark");
  // So does an unknown mode: the valid modes, no source location.
  Json bad_mode = Json::object();
  bad_mode.set("op", "compile");
  bad_mode.set("benchmark", "matmul");
  bad_mode.set("mode", "bogus");
  const Json bad_mode_resp = core.handle(bad_mode);
  EXPECT_EQ(bad_mode_resp.get("code").as_string(), "bad-request");
  EXPECT_EQ(bad_mode_resp.get("error").as_string(),
            "unknown flattening mode 'bogus' (valid modes: moderate, "
            "incremental, full)");
  // handle_text: malformed JSON fails the request, not the process.
  const Json parsed = Json::parse(core.handle_text("{not json"));
  EXPECT_FALSE(parsed.get("ok").as_bool());
  EXPECT_EQ(parsed.get("code").as_string(), "bad-request");
  EXPECT_EQ(core.request_stats().errors, 5);
}

TEST(Server, CompileCachesByProgramKey) {
  ServerCore core(small_opts());
  Json req = Json::object();
  req.set("op", "compile");
  req.set("benchmark", "matmul");
  const Json cold = core.handle(req);
  ASSERT_TRUE(cold.get("ok").as_bool());
  EXPECT_FALSE(cold.get("cached").as_bool());
  EXPECT_GT(cold.get("kernels").as_double(), 0);
  const Json warm = core.handle(req);
  EXPECT_TRUE(warm.get("cached").as_bool());
  EXPECT_EQ(warm.get("program_hash").as_string(),
            cold.get("program_hash").as_string());
  EXPECT_GE(core.cache().stats().hits, 1);
}

TEST(Server, RunAdoptsCompiledPlanWithoutRecompiling) {
  ServerCore core(small_opts());
  Json c = Json::object();
  c.set("op", "compile");
  c.set("benchmark", "matmul");
  core.handle(c);
  const Json r = core.handle(run_req("matmul", "square"));
  ASSERT_TRUE(r.get("ok").as_bool());
  // The run entry was new (not "cached") but the plan came from the
  // program-level entry the compile created.
  EXPECT_FALSE(r.get("cached").as_bool());
  EXPECT_TRUE(r.get("plan_cached").as_bool());
  EXPECT_GT(r.get("time_us").as_double(), 0);
  EXPECT_GT(r.get("kernel_launches").as_double(), 0);
}

TEST(Server, ThresholdOverridesAreHonoredPerRequest) {
  ServerCore core(small_opts());
  const Json base = core.handle(run_req("matmul", "skinny"));
  ASSERT_TRUE(base.get("ok").as_bool());
  // Push every registered threshold to an absurd high value: on the skinny
  // dataset that forces different guard verdicts than the defaults.  The
  // override applies to this request only — results stay deterministic and
  // the un-overridden request still answers exactly as before.
  const Compiled compiled =
      compile(get_benchmark("matmul").program, FlattenMode::Incremental);
  Json thr = Json::object();
  for (const auto& info : compiled.flat.thresholds.all())
    thr.set(info.name, int64_t{1} << 40);
  ASSERT_GT(thr.size(), 0u);
  Json forced = run_req("matmul", "skinny");
  forced.set("thresholds", thr);
  const Json flipped = core.handle(forced);
  ASSERT_TRUE(flipped.get("ok").as_bool());
  EXPECT_EQ(core.handle(forced).get("estimate_us").as_double(),
            flipped.get("estimate_us").as_double());
  EXPECT_EQ(core.handle(run_req("matmul", "skinny"))
                .get("estimate_us")
                .as_double(),
            base.get("estimate_us").as_double());
}

SizeEnv dataset_sizes(const Benchmark& b, const std::string& name) {
  for (const auto* set : {&b.datasets, &b.tuning})
    for (const BenchDataset& d : *set)
      if (d.name == name) return d.sizes;
  ADD_FAILURE() << b.name << " has no dataset " << name;
  return {};
}

TEST(Server, ConcurrentRunsOnOneKeyMatchTheTreeOracle) {
  // Eight threads share one run entry's memo, half of their requests with
  // per-request threshold overrides (memo misses that descend the plan on
  // the shared cache).  Every answer must carry the in-process estimate of
  // its own thresholds, bit for bit.
  ServerCore core(small_opts());
  const Benchmark b = get_benchmark("matmul");
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const SizeEnv sizes = dataset_sizes(b, "square");
  std::vector<ThresholdEnv> variants(3);  // [0] = defaults, a memo hit
  for (const auto& info : c.flat.thresholds.all()) {
    variants[1].values[info.name] = 1;
    variants[2].values[info.name] = int64_t{1} << 40;
  }
  std::vector<Json> reqs;
  std::vector<RunEstimate> want;
  for (const ThresholdEnv& thr : variants) {
    Json r = run_req("matmul", "square");
    if (!thr.values.empty()) {
      Json tj = Json::object();
      for (const auto& [name, v] : thr.values) tj.set(name, v);
      r.set("thresholds", tj);
    }
    reqs.push_back(r);
    want.push_back(plan_estimate_run(*c.plan, device_k40(), sizes, thr));
  }
  ASSERT_NE(want[0].time_us, want[1].time_us) << "variants must differ";
  constexpr int kThreads = 8;
  constexpr int kReqs = 40;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReqs; ++i) {
        const size_t v = static_cast<size_t>(t + i) % reqs.size();
        const Json r = core.handle(reqs[v]);
        if (!r.get("ok").as_bool() ||
            r.get("estimate_us").as_double() != want[v].time_us ||
            static_cast<int64_t>(r.get("kernel_launches").as_double()) !=
                want[v].kernel_launches)
          ++wrong;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(core.request_stats().runs, kThreads * kReqs);
}

TEST(Server, SameFaultSeedAnswersSerialRequestsIdentically) {
  // Each request draws its own fault stream from the entry seed and the
  // entry's run count, so one serial request sequence answers the same on
  // any two cores with the same spec and seed — and repeated requests on
  // one key do not replay one another's faults.
  ServeOptions o = small_opts();
  o.faults = "all=0.3";
  o.fault_seed = 7;
  ServerCore a(o), b(o);
  std::vector<Json> seq;
  for (const std::string name : {"matmul", "LocVolCalib", "Backprop"}) {
    const Benchmark bench = get_benchmark(name);
    for (int i = 0; i < 4; ++i)
      seq.push_back(run_req(name, bench.datasets.front().name));
  }
  // Threshold overrides miss the memo and descend the plan.
  const Compiled matmul =
      compile(get_benchmark("matmul").program, FlattenMode::Incremental);
  Json all_on = Json::object();
  for (const auto& info : matmul.flat.thresholds.all())
    all_on.set(info.name, 1);
  Json flipped = run_req("matmul", "square");
  flipped.set("thresholds", all_on);
  seq.push_back(flipped);
  int faulted = 0;
  std::vector<std::string> matmul_answers;
  for (const Json& req : seq) {
    const std::string ra = a.handle(req).str(-1);
    EXPECT_EQ(ra, b.handle(req).str(-1)) << req.str(-1);
    const Json parsed = Json::parse(ra);
    if (parsed.find("faults")) ++faulted;
    if (req.get("benchmark").as_string() == "matmul" &&
        !req.find("thresholds"))
      matmul_answers.push_back(ra);
  }
  EXPECT_GT(faulted, 0) << "the fault spec never fired";
  bool varied = false;
  for (const std::string& ans : matmul_answers)
    varied = varied || ans != matmul_answers.front();
  EXPECT_TRUE(varied) << "every run of one key drew the same fault stream";
}

TEST(Server, TuneTunesTheFlattenedProgram) {
  // The tune op must search the flattened program's thresholds: the answer
  // equals an in-process autotune of it, and a following "tuned" run
  // answers the plan's estimate under the published thresholds.  (On
  // vega64 the tuned thresholds beat the defaults, so they are published.)
  ServerCore core(small_opts());
  const DeviceProfile dev = device_vega64();
  const Benchmark b = get_benchmark("LocVolCalib");
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  TunerOptions topts;
  topts.max_trials = small_opts().tune_trials;
  topts.measure_seed = small_opts().fault_seed;
  const TuningReport rep = autotune(dev, *c.plan, train, topts);
  ASSERT_FALSE(rep.best.values.empty());

  Json req = Json::object();
  req.set("op", "tune");
  req.set("benchmark", "LocVolCalib");
  req.set("device", dev.name);
  const Json ans = core.handle(req);
  ASSERT_TRUE(ans.get("ok").as_bool()) << ans.str(-1);
  EXPECT_EQ(ans.get("best_cost_us").as_double(), rep.best_cost_us);
  EXPECT_EQ(ans.get("evaluations").as_double(), rep.evaluations);
  const Json& thr = ans.get("thresholds");
  EXPECT_EQ(thr.size(), rep.best.values.size());
  for (const auto& [name, v] : rep.best.values)
    EXPECT_EQ(thr.get(name).as_double(), static_cast<double>(v)) << name;

  const std::string& ds = b.datasets.front().name;
  Json run = run_req("LocVolCalib", ds);
  run.set("device", dev.name);
  run.set("tuned", true);
  const Json r = core.handle(run);
  ASSERT_TRUE(r.get("ok").as_bool()) << r.str(-1);
  const RunEstimate want =
      plan_estimate_run(*c.plan, dev, dataset_sizes(b, ds), rep.best);
  EXPECT_EQ(r.get("estimate_us").as_double(), want.time_us);
  EXPECT_EQ(r.get("kernel_launches").as_double(),
            static_cast<double>(want.kernel_launches));
}

TEST(Server, TuneTunesTheResidentPlanWithoutRebuildingIt) {
  // A tune request for a resident program tunes its entry's plan: with
  // tracing on, compiling builds the one plan and tuning builds none.
  ServerCore core(small_opts());
  Json req = Json::object();
  req.set("op", "compile");
  req.set("benchmark", "LocVolCalib");
  trace::set_enabled(true);
  trace::reset();
  const Json compiled = core.handle(req);
  const int64_t builds = trace::counters()["plan.builds"];
  req.set("op", "tune");
  const Json tuned = core.handle(req);
  const int64_t after = trace::counters()["plan.builds"];
  trace::set_enabled(false);
  trace::reset();
  ASSERT_TRUE(compiled.get("ok").as_bool()) << compiled.str(-1);
  ASSERT_TRUE(tuned.get("ok").as_bool()) << tuned.str(-1);
  EXPECT_TRUE(tuned.get("cached").as_bool());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(after, builds);
}

TEST(Server, TuneRejectsTrialsOutsideIntRange) {
  // 'trials' becomes an int budget: a value outside [1, INT_MAX] or with a
  // fraction answers bad-request instead of converting out of range or
  // truncating.  An in-range integer still tunes with exactly that budget.
  ServerCore core(small_opts());
  const std::string head =
      R"({"op":"tune","benchmark":"matmul","device":"k40","trials":)";
  for (const char* bad : {"1e300", "3000000000", "2.5", "0", "-4", "\"9\""}) {
    const Json ans = Json::parse(core.handle_text(head + bad + "}"));
    EXPECT_FALSE(ans.get("ok").as_bool()) << bad << ": " << ans.str(-1);
    EXPECT_EQ(ans.get("code").as_string(), "bad-request") << bad;
  }
  const Json ok = Json::parse(core.handle_text(head + "3}"));
  ASSERT_TRUE(ok.get("ok").as_bool()) << ok.str(-1);
  EXPECT_EQ(ok.get("trials").as_double(), 3.0);
}

TEST(Server, RunRejectsBadThresholdValues) {
  // A threshold override becomes an int64: a non-number, a fraction or a
  // value outside int64's range answers bad-request naming the threshold,
  // instead of failing internally, truncating or converting out of range.
  ServerCore core(small_opts());
  const Compiled c =
      compile(get_benchmark("matmul").program, FlattenMode::Incremental);
  ASSERT_FALSE(c.flat.thresholds.empty());
  const std::string name = c.flat.thresholds.all()[0].name;
  const std::string head =
      R"({"op":"run","benchmark":"matmul","dataset":"square","thresholds":{")" +
      name + R"(":)";
  for (const char* bad :
       {"\"x\"", "2.5", "1e300", "-1e300", "9223372036854775808"}) {
    const Json ans = Json::parse(core.handle_text(head + bad + "}}"));
    EXPECT_FALSE(ans.get("ok").as_bool()) << bad << ": " << ans.str(-1);
    EXPECT_EQ(ans.get("code").as_string(), "bad-request") << bad;
    EXPECT_NE(ans.get("error").as_string().find(name), std::string::npos)
        << bad;
  }
  const Json ok = Json::parse(core.handle_text(head + "1024}}"));
  EXPECT_TRUE(ok.get("ok").as_bool()) << ok.str(-1);
  // A name the program has no threshold for, such as a misspelt one, is
  // rejected too, naming the first unknown key.
  const Json unknown = Json::parse(core.handle_text(
      head + R"(1024,"no_such_threshold":"x","also_unknown":1}})"));
  EXPECT_FALSE(unknown.get("ok").as_bool()) << unknown.str(-1);
  EXPECT_EQ(unknown.get("code").as_string(), "bad-request");
  EXPECT_NE(unknown.get("error").as_string().find("'no_such_threshold'"),
            std::string::npos)
      << unknown.str(-1);
}

TEST(Server, BadRunRequestsLeaveTheKeyServing) {
  // A run can throw on user input (bad 'thresholds', 'tuned' with nothing
  // published, an empty dataset name while the program entry is resident):
  // each such request answers bad-request, and the key keeps serving.
  ServerCore core(small_opts());
  ASSERT_TRUE(core.handle(run_req("matmul", "square")).get("ok").as_bool());
  Json bad = run_req("matmul", "square");
  bad.set("thresholds", "not-an-object");
  Json tuned = run_req("matmul", "square");
  tuned.set("tuned", true);
  for (const Json& req : {bad, tuned, run_req("matmul", "")}) {
    const Json err = core.handle(req);
    EXPECT_FALSE(err.get("ok").as_bool()) << req.str(-1);
    EXPECT_EQ(err.get("code").as_string(), "bad-request") << req.str(-1);
  }
  // The key is not wedged.
  const Json good = core.handle(run_req("matmul", "square"));
  EXPECT_TRUE(good.get("ok").as_bool());
}

TEST(Server, ConcurrentBadRequestsFailOnlyThemselves) {
  // Good and bad requests hammer one key concurrently: every bad request
  // answers bad-request, every good one answers ok.
  ServerCore core(small_opts());
  ASSERT_TRUE(core.handle(run_req("matmul", "square")).get("ok").as_bool());
  std::atomic<int> misattributed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const bool bad = (t % 2) == 0;
      for (int i = 0; i < 25; ++i) {
        Json req = run_req("matmul", "square");
        if (bad) req.set("thresholds", "not-an-object");
        const Json r = core.handle(req);
        if (r.get("ok").as_bool() == bad) ++misattributed;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(misattributed.load(), 0);
}

// ---------------------------------------------------------------------------
// Seeded concurrency stress: the PR-7 bug shapes, reconstructed
// ---------------------------------------------------------------------------

/// Cache payload that poisons itself on destruction: any reader observing
/// the poison dereferenced an entry after the cache's last reference died —
/// the eviction-use-after-free shape.  The atomic makes the check itself
/// race-free under TSan.
struct Canary : CacheValue {
  explicit Canary(uint64_t v) : value(v) {}
  ~Canary() override { value.store(0xdeadbeefdeadbeefULL); }
  std::atomic<uint64_t> value;
};

TEST(CacheStress, EvictionWhileReferencedSeeded) {
  // A tiny budget forces constant eviction while readers hold and
  // dereference entries across the eviction: shared_ptr pinning is the only
  // thing between this test and a use-after-free.  Fixed seeds make every
  // thread's key/hold schedule reproducible.
  PlanCache cache(2 * 1024);  // ~16 resident entries of 128 bytes
  constexpr int kThreads = 4;
  constexpr int kIters = 800;
  constexpr int kKeys = 64;
  std::atomic<int64_t> poisoned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(t));
      std::shared_ptr<Canary> held;  // reference surviving evictions
      uint64_t held_key = 0;
      for (int i = 0; i < kIters; ++i) {
        const uint64_t k = rng() % kKeys;
        const std::string key = "stress-" + std::to_string(k);
        auto got = std::static_pointer_cast<Canary>(cache.find(key));
        if (!got) {
          got = std::static_pointer_cast<Canary>(
              cache.insert(key, std::make_shared<Canary>(k), 128));
        }
        if (got->value.load() != k) ++poisoned;
        if (rng() % 4 == 0) {
          held = got;  // hold this one across future evictions
          held_key = k;
        }
        if (held && held->value.load() != held_key) ++poisoned;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(poisoned.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0) << "budget never forced eviction — the stress "
                               "did not exercise the bug shape";
  EXPECT_LE(s.bytes, 2u * 1024u);
}

// ---------------------------------------------------------------------------
// Property: cache-served plans are bit-identical to fresh compiles
// ---------------------------------------------------------------------------

TEST(Server, CacheServedPlansBitIdenticalToFreshCompiles) {
  ServeOptions opts = small_opts();
  ServerCore warm(opts);
  for (const std::string& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    ASSERT_FALSE(b.datasets.empty());
    const std::string& ds = b.datasets.front().name;
    const Json first = warm.handle(run_req(name, ds));
    ASSERT_TRUE(first.get("ok").as_bool()) << name;
    const Json served = warm.handle(run_req(name, ds));
    ASSERT_TRUE(served.get("ok").as_bool()) << name;
    EXPECT_TRUE(served.get("cached").as_bool()) << name;

    ServerCore fresh(opts);
    const Json scratch = fresh.handle(run_req(name, ds));
    ASSERT_TRUE(scratch.get("ok").as_bool()) << name;
    EXPECT_EQ(served.get("estimate_us").as_double(),
              scratch.get("estimate_us").as_double())
        << name << ": cache-served estimate differs from fresh compile";
    EXPECT_EQ(served.get("kernel_launches").as_double(),
              scratch.get("kernel_launches").as_double())
        << name;
    EXPECT_EQ(first.get("estimate_us").as_double(),
              served.get("estimate_us").as_double())
        << name;
  }
}

// ---------------------------------------------------------------------------
// Socket round trip
// ---------------------------------------------------------------------------

struct SocketFixture {
  ServerCore core;
  ServeSocket sock;
  std::thread loop;

  explicit SocketFixture(const serve::Endpoint& ep,
                         serve::SocketOptions sopts = {},
                         ServeOptions opts = small_opts())
      : core(std::move(opts)), sock(core, ep, sopts) {
    loop = std::thread([this] { sock.serve_forever(); });
  }
  ~SocketFixture() {
    sock.stop();
    loop.join();
  }
};

/// Occupies every scheduler worker of `core` until release() or
/// destruction, so requests the socket layer schedules wait behind it.
/// release() returns once every gate job has returned: nothing a gate job
/// touches dies before it.
class WorkerGate {
 public:
  explicit WorkerGate(ServerCore& core) : left_(core.scheduler().width()) {
    for (int i = 0; i < core.scheduler().width(); ++i) {
      core.scheduler().submit(
          [this] {
            while (!open_.load()) std::this_thread::yield();
            --left_;  // the job's last touch of the gate
          },
          JobPriority::High);
    }
  }
  ~WorkerGate() { release(); }
  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  void release() {
    open_.store(true);
    while (left_.load() > 0) std::this_thread::yield();
  }

 private:
  std::atomic<bool> open_{false};
  std::atomic<int> left_;
};

/// A raw connected socket, for tests that pipeline frames or watch what
/// the daemon has (not) written.
int raw_connect(const serve::Endpoint& ep) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// MSG_NOSIGNAL: a server that already severed the connection fails the
/// assertion instead of killing the whole suite with SIGPIPE.
void send_all(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// Read frames until `n` responses arrived or the daemon closed the
/// connection.
std::vector<Json> read_responses(int fd, size_t n) {
  std::vector<Json> resps;
  FrameReader reader;
  char buf[4096];
  while (resps.size() < n) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    reader.feed(buf, static_cast<size_t>(got));
    std::string payload;
    while (reader.next(&payload)) resps.push_back(Json::parse(payload));
  }
  return resps;
}

TEST(Socket, UnixRoundTripWithPipelinedIds) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_serve.sock");
  SocketFixture fx(ep);
  ServeClient client(ep);
  Json ping = Json::object();
  ping.set("op", "ping");
  ping.set("id", "first");
  const Json pong = client.call(ping);
  EXPECT_TRUE(pong.get("ok").as_bool());
  EXPECT_EQ(pong.get("id").as_string(), "first");
  // A real compile + run over the wire.
  Json run = run_req("matmul", "square");
  const Json r = client.call(run);
  EXPECT_TRUE(r.get("ok").as_bool());
  EXPECT_GT(r.get("time_us").as_double(), 0);
  // Malformed JSON payload fails that one request; the connection lives.
  const Json bad = Json::parse(client.call_text("{oops"));
  EXPECT_FALSE(bad.get("ok").as_bool());
  EXPECT_EQ(bad.get("code").as_string(), "bad-request");
  const Json again = client.call(ping);
  EXPECT_TRUE(again.get("ok").as_bool());
  // The malformed frame counts like any failed request.
  const Json stats = client.call(Json::object().set("op", "stats"));
  EXPECT_EQ(stats.get("requests").get("total").as_double(), 4.0);
  EXPECT_EQ(stats.get("requests").get("errors").as_double(), 1.0);
}

TEST(Socket, TcpEphemeralPortAndConcurrentClients) {
  const serve::Endpoint ep = serve::parse_endpoint("tcp:127.0.0.1:0");
  SocketFixture fx(ep);
  ASSERT_GT(fx.sock.bound_port(), 0);
  serve::Endpoint client_ep = ep;
  client_ep.port = fx.sock.bound_port();
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      try {
        ServeClient cl(client_ep);
        for (int i = 0; i < 10; ++i) {
          const Json r = cl.call(run_req("matmul", "square"));
          if (!r.get("ok").as_bool()) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fx.core.request_stats().runs, 40);
}

TEST(Socket, ShutdownOpAcksThenStopsTheLoop) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_shutdown.sock");
  ServerCore core(small_opts());
  ServeSocket sock(core, ep);
  std::thread loop([&] { sock.serve_forever(); });
  {
    ServeClient client(ep);
    Json req = Json::object();
    req.set("op", "shutdown");
    const Json resp = client.call(req);
    EXPECT_TRUE(resp.get("ok").as_bool());
    EXPECT_TRUE(resp.get("shutdown").as_bool());
  }
  loop.join();  // the loop exited because of the op, not stop()
}

TEST(Socket, ProtocolErrorDrainsAfterInflightResponses) {
  // A slow request (a real run through the scheduler) followed in the same
  // burst by a poisoned length prefix: the protocol error must take the next
  // sequence number and drain *after* the run's response — the documented
  // in-order guarantee holds through the connection's final frames.
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_poison.sock");
  SocketFixture fx(ep);
  const int fd = raw_connect(ep);
  std::string bytes = serve::encode_frame(run_req("matmul", "square").str(-1));
  bytes.append("\xff\xff\xff\xff", 4);  // hostile 4 GiB length prefix
  send_all(fd, bytes);
  std::string got;
  char buf[4096];
  for (;;) {  // the server closes the connection once both responses drain
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  FrameReader r;
  r.feed(got);
  std::string payload;
  ASSERT_TRUE(r.next(&payload));
  const Json first = Json::parse(payload);
  EXPECT_TRUE(first.get("ok").as_bool());
  EXPECT_GT(first.get("time_us").as_double(), 0);
  ASSERT_TRUE(r.next(&payload));
  const Json second = Json::parse(payload);
  EXPECT_FALSE(second.get("ok").as_bool());
  EXPECT_EQ(second.get("code").as_string(), "protocol");
  EXPECT_FALSE(r.next(&payload));
  EXPECT_EQ(r.pending(), 0u);
}

TEST(Server, ExpiredDeadlineAnswersTimeoutBeforeRunning) {
  ServerCore core(small_opts());
  CancelToken tok;
  tok.cancel();  // an already-dead deadline: handle() must not start work
  Json req = run_req("matmul", "square");
  req.set("id", "d1");
  const Json resp = core.handle(req, &tok);
  EXPECT_FALSE(resp.get("ok").as_bool());
  EXPECT_EQ(resp.get("code").as_string(), "timeout");
  EXPECT_TRUE(serve::is_retriable(resp));
  EXPECT_EQ(resp.get("id").as_string(), "d1");
  EXPECT_EQ(core.request_stats().deadline_expired, 1);
  EXPECT_EQ(core.request_stats().errors, 1);
}

TEST(Server, DeadlinePastTheClockRangeIsNoDeadline) {
  // The steady clock counts int64 nanoseconds: a deadline of 1e13 ms or
  // more lies past its range, and 1e300 ms has no int64 count at all.
  // Such a token never expires, so a warm run under it answers.
  CancelToken far(1e300);
  CancelToken beyond(1e13);
  CancelToken past(-1e300);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_ms(), 1e17);
  EXPECT_FALSE(beyond.expired());
  EXPECT_TRUE(past.expired());
  ServerCore core(small_opts());
  ASSERT_TRUE(core.handle(run_req("matmul", "square")).get("ok").as_bool());
  const Json resp = core.handle(run_req("matmul", "square"), &far);
  EXPECT_TRUE(resp.get("ok").as_bool()) << resp.str(-1);
  EXPECT_TRUE(resp.get("cached").as_bool());
}

TEST(Socket, DeadlineExpiresInQueueOverTheWire) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_deadline.sock");
  SocketFixture fx(ep);
  // Occupy both workers so the (cold) run sits in the queue past its
  // deadline.
  WorkerGate gate(fx.core);
  ServeClient client(ep);
  Json req = run_req("matmul", "square");
  req.set("deadline_ms", 20.0);
  req.set("id", "dl");
  // Expiry is detected when a worker next scans the queue, so free the
  // workers well after the deadline passes — from a side thread, since
  // call() blocks until the timeout answer arrives.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    gate.release();
  });
  const Json resp = client.call(req);
  releaser.join();
  EXPECT_FALSE(resp.get("ok").as_bool());
  EXPECT_EQ(resp.get("code").as_string(), "timeout");
  EXPECT_TRUE(serve::is_retriable(resp));
  // The drop-path answer still correlates: the request id is echoed.
  EXPECT_EQ(resp.get("id").as_string(), "dl");
}

TEST(Socket, FarDeadlineIsNoDeadlineOverTheWire) {
  // A deadline past the steady clock's range leaves the request no
  // deadline: the cold compile waits in the scheduler's queue without
  // expiring, and answers.  The client's own timeout past int's range of
  // milliseconds is no timeout either.
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_fardeadline.sock");
  SocketFixture fx(ep);
  ServeClient client(ep, /*timeout_ms=*/1e300);
  Json req = Json::object();
  req.set("op", "compile");
  req.set("benchmark", "matmul");
  req.set("deadline_ms", 1e15);
  const Json resp = client.call(req);
  EXPECT_TRUE(resp.get("ok").as_bool()) << resp.str(-1);
  EXPECT_EQ(fx.core.scheduler().stats().expired, 0);
}

TEST(Socket, ConnCapAnswersOverloadedThenCloses) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_conncap.sock");
  serve::SocketOptions so;
  so.max_conns = 1;
  SocketFixture fx(ep, so);
  ServeClient keeper(ep);
  Json ping = Json::object();
  ping.set("op", "ping");
  EXPECT_TRUE(keeper.call(ping).get("ok").as_bool());
  // The second connection gets one retriable "overloaded" frame, then EOF.
  ServeClient spill(ep);
  const Json r = spill.call(ping);
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("code").as_string(), "overloaded");
  EXPECT_TRUE(serve::is_retriable(r));
  EXPECT_THROW(spill.call(ping), IoError);
  // The admitted connection is unaffected.
  EXPECT_TRUE(keeper.call(ping).get("ok").as_bool());
}

TEST(Socket, InflightCapShedsPipelinedRequests) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_inflight.sock");
  serve::SocketOptions so;
  so.max_inflight_per_conn = 1;
  SocketFixture fx(ep, so);
  // Gate both workers so the first (cold) request stays in flight while
  // the second arrives pipelined on the same connection.
  WorkerGate gate(fx.core);
  const int fd = raw_connect(ep);
  Json r1 = run_req("matmul", "square");
  r1.set("id", "a");
  Json r2 = run_req("matmul", "square");
  r2.set("id", "b");
  send_all(fd, serve::encode_frame(r1.str(-1)) +
                   serve::encode_frame(r2.str(-1)));
  // Give the loop time to decode both frames (the second sheds while the
  // first is still in flight), then let the first run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();
  const std::vector<Json> resps = read_responses(fd, 2);
  ::close(fd);
  ASSERT_EQ(resps.size(), 2u)
      << "connection closed before both responses arrived";
  // In order: the admitted run's answer first, then the shed answer.
  EXPECT_TRUE(resps[0].get("ok").as_bool());
  EXPECT_EQ(resps[0].get("id").as_string(), "a");
  EXPECT_FALSE(resps[1].get("ok").as_bool());
  EXPECT_EQ(resps[1].get("code").as_string(), "overloaded");
  EXPECT_TRUE(serve::is_retriable(resps[1]));
  EXPECT_EQ(resps[1].get("id").as_string(), "b");
}

TEST(Socket, GracefulDrainFinishesInflightAndRejectsNew) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_drain.sock");
  // A bound past the clock's range is no bound: the drain still waits for
  // the in-flight run instead of severing it at once.
  for (const double drain_ms : {4000.0, 1e300}) {
    SCOPED_TRACE(drain_ms);
    ServerCore core(small_opts());
    serve::SocketOptions so;
    so.drain_ms = drain_ms;
    ServeSocket sock(core, ep, so);
    std::thread loop([&] { sock.serve_forever(); });
    WorkerGate gate(core);
    const int fd = raw_connect(ep);
    // One request admitted before the drain...
    Json keep = run_req("matmul", "square");
    keep.set("id", "keep");
    send_all(fd, serve::encode_frame(keep.str(-1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    sock.request_drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // ...and one sent after it began: fail-fast "draining", retriable.
    Json late = run_req("matmul", "square");
    late.set("id", "late");
    send_all(fd, serve::encode_frame(late.str(-1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    gate.release();
    // The drain finishes the in-flight run, answers both in order, then
    // closes the connection and exits the loop — clean, nothing forced.
    std::string got;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    loop.join();
    FrameReader reader;
    reader.feed(got);
    std::string payload;
    ASSERT_TRUE(reader.next(&payload));
    const Json first = Json::parse(payload);
    EXPECT_TRUE(first.get("ok").as_bool());
    EXPECT_EQ(first.get("id").as_string(), "keep");
    ASSERT_TRUE(reader.next(&payload));
    const Json second = Json::parse(payload);
    EXPECT_FALSE(second.get("ok").as_bool());
    EXPECT_EQ(second.get("code").as_string(), "draining");
    EXPECT_TRUE(serve::is_retriable(second));
    EXPECT_EQ(second.get("id").as_string(), "late");
    EXPECT_FALSE(reader.next(&payload));
    const serve::DrainStats& ds = sock.drain_stats();
    EXPECT_TRUE(ds.requested);
    EXPECT_TRUE(ds.clean);
    EXPECT_EQ(ds.forced_conns, 0);
    // The listen socket is gone: new connections are refused.
    EXPECT_THROW(ServeClient{ep}, IoError);
  }
}

TEST(Socket, ClientResponseTimeoutThrowsIoError) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_clienttimeout.sock");
  SocketFixture fx(ep);
  WorkerGate gate(fx.core);
  ServeClient client(ep, /*timeout_ms=*/60);
  EXPECT_THROW(client.call(run_req("matmul", "square")), IoError);
}

// ---------------------------------------------------------------------------
// Warm requests answered on the loop thread (try_handle_cached)
// ---------------------------------------------------------------------------

TEST(Server, TryHandleCachedAnswersOnlyResidentEntries) {
  // Declines (nullopt, nothing counted) until the entry exists; then
  // answers exactly what handle() answers, counting what handle() counts
  // plus requests.inline.
  ServerCore core(small_opts());
  Json compile_req = Json::object();
  compile_req.set("op", "compile");
  compile_req.set("benchmark", "matmul");
  Json tune_req = compile_req;
  tune_req.set("op", "tune");
  for (const Json& req :
       {run_req("matmul", "square"), compile_req, tune_req,
        Json::object().set("op", "stats"), Json::object().set("op", "ping"),
        Json::parse("[1]")})
    EXPECT_FALSE(core.try_handle_cached(req)) << req.str(-1);
  EXPECT_EQ(core.request_stats().total, 0);
  EXPECT_EQ(core.cache().stats().hits + core.cache().stats().misses, 0);

  const Json cold = core.handle(run_req("matmul", "square"));
  const Json warm = core.handle(run_req("matmul", "square"));
  const std::optional<Json> fast = core.try_handle_cached(
      run_req("matmul", "square"));
  ASSERT_TRUE(fast);
  EXPECT_EQ(fast->str(-1), warm.str(-1));
  // The run published the program entry, so a compile answers too.
  const std::optional<Json> compiled = core.try_handle_cached(compile_req);
  ASSERT_TRUE(compiled);
  EXPECT_TRUE(compiled->get("cached").as_bool());
  EXPECT_FALSE(core.try_handle_cached(tune_req));
  const serve::RequestStats rs = core.request_stats();
  EXPECT_EQ(rs.total, 4);
  EXPECT_EQ(rs.runs, 3);
  EXPECT_EQ(rs.compiles, 1);
  EXPECT_EQ(rs.inlined, 2);
  EXPECT_EQ(core.cache().stats().hits, 3);
}

TEST(Server, TryHandleCachedAnswersFaultInjectedRunsLikeHandle) {
  // A faulting run adds its retry backoff to simulated time and never
  // sleeps, so a warm one answers inline too: each draws the same fault
  // stream as the same run sent through handle() on a second core.
  ServeOptions o = small_opts();
  o.faults = "all=0.3";
  ServerCore fast(o), slow(o);
  const Json req = run_req("matmul", "square");
  ASSERT_EQ(fast.handle(req).str(-1), slow.handle(req).str(-1));
  int faulted = 0;
  for (int i = 0; i < 8; ++i) {
    const std::optional<Json> inl = fast.try_handle_cached(req);
    ASSERT_TRUE(inl) << i;
    const Json scheduled = slow.handle(req);
    EXPECT_EQ(inl->str(-1), scheduled.str(-1)) << i;
    if (scheduled.find("faults")) ++faulted;
  }
  EXPECT_GT(faulted, 0) << "all=0.3 never faulted: the comparison is vacuous";
  EXPECT_EQ(fast.request_stats().inlined, 8);
}

TEST(Socket, WarmRequestsAnswerWhileEveryWorkerIsGated) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_warm.sock");
  for (const char* faults : {"", "all=0.01"}) {
    SCOPED_TRACE(faults);
    ServeOptions o = small_opts();
    o.faults = faults;
    SocketFixture fx(ep, {}, o);
    ServeClient client(ep, /*timeout_ms=*/5000);
    ASSERT_TRUE(client.call(run_req("matmul", "square")).get("ok").as_bool());
    WorkerGate gate(fx.core);
    const Json r = client.call(run_req("matmul", "square"));
    EXPECT_TRUE(r.get("ok").as_bool());
    EXPECT_TRUE(r.get("cached").as_bool());
    Json compile_req = Json::object();
    compile_req.set("op", "compile");
    compile_req.set("benchmark", "matmul");
    EXPECT_TRUE(client.call(compile_req).get("cached").as_bool());
    EXPECT_EQ(fx.core.request_stats().inlined, 2);
  }
}

TEST(Socket, WarmRunPipelinedBehindAColdRequestAnswersSecond) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_warmorder.sock");
  SocketFixture fx(ep);
  ASSERT_TRUE(fx.core.handle(run_req("matmul", "square")).get("ok").as_bool());
  WorkerGate gate(fx.core);
  const int fd = raw_connect(ep);
  Json cold = run_req("matmul", "skinny");
  cold.set("id", "cold");
  Json warm = run_req("matmul", "square");
  warm.set("id", "warm");
  send_all(fd, serve::encode_frame(cold.str(-1)) +
                   serve::encode_frame(warm.str(-1)));
  // The warm run is answered at once, but its answer must wait for the
  // cold one, which waits for a worker.
  spin_until([&] { return fx.core.request_stats().inlined == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT), -1)
      << "an answer was written before the cold request's";
  gate.release();
  const std::vector<Json> resps = read_responses(fd, 2);
  ::close(fd);
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[0].get("id").as_string(), "cold");
  EXPECT_FALSE(resps[0].get("cached").as_bool());
  EXPECT_EQ(resps[1].get("id").as_string(), "warm");
  EXPECT_TRUE(resps[1].get("cached").as_bool());
}

TEST(Socket, WarmRunWithSpentDeadlineAnswersTimeoutInline) {
  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_warmdeadline.sock");
  SocketFixture fx(ep);
  ASSERT_TRUE(fx.core.handle(run_req("matmul", "square")).get("ok").as_bool());
  WorkerGate gate(fx.core);
  ServeClient client(ep, /*timeout_ms=*/5000);
  Json req = run_req("matmul", "square");
  req.set("id", "spent");
  req.set("deadline_ms", 1e-4);  // rounds to a deadline of "now"
  const Json resp = client.call(req);
  EXPECT_FALSE(resp.get("ok").as_bool());
  EXPECT_EQ(resp.get("code").as_string(), "timeout");
  EXPECT_TRUE(serve::is_retriable(resp));
  EXPECT_EQ(resp.get("id").as_string(), "spent");
  const serve::RequestStats rs = fx.core.request_stats();
  EXPECT_EQ(rs.deadline_expired, 1);
  EXPECT_EQ(rs.inlined, 1);
  EXPECT_EQ(fx.core.cache().stats().hits, 0);  // like handle(): no hit
}

TEST(Socket, TalliesMatchHandleOnAMixedSequence) {
  // One request sequence, sent over the socket (warm runs and compiles
  // answer on the loop thread) and through handle(): the answers and every
  // cache and request tally agree; only requests.inline differs.
  const std::string lvc_ds =
      get_benchmark("LocVolCalib").datasets.front().name;
  const std::vector<std::string> seq = {
      R"({"op":"compile","benchmark":"matmul"})",
      R"({"op":"compile","benchmark":"matmul","id":1})",
      R"({"op":"run","benchmark":"matmul","dataset":"square"})",
      R"({"op":"run","benchmark":"matmul","dataset":"square","id":"w"})",
      R"({"op":"run","benchmark":"matmul","dataset":"square",)"
      R"("thresholds":{"suff_outer_par_0":1}})",
      R"({"op":"run","benchmark":"matmul","dataset":"square",)"
      R"("thresholds":"bad"})",
      R"({"op":"run","benchmark":"matmul","dataset":"square","tuned":true})",
      R"({"op":"run","benchmark":"matmul","dataset":"square",)"
      R"("deadline_ms":0.0001})",
      R"({"op":"run","benchmark":"matmul","dataset":"skinny",)"
      R"("deadline_ms":0.0001})",
      R"({"op":"run","benchmark":"matmul","dataset":"nosuch"})",
      R"({"op":"run","benchmark":"nosuch","dataset":"square"})",
      R"({"op":"compile","benchmark":"matmul","mode":"bogus"})",
      R"({"op":"compile","benchmark":"matmul","device":7})",
      R"({oops)",
      R"([1,2])",
      R"({"op":"ping"})",
      R"({"op":"tune","benchmark":"matmul","trials":3})",
      R"({"op":"run","benchmark":"matmul","dataset":"square","tuned":true})",
      R"({"op":"compile","benchmark":"LocVolCalib","device":"vega64"})",
      R"({"op":"run","benchmark":"LocVolCalib","device":"vega64",)"
      R"("dataset":")" + lvc_ds + R"("})",
      R"({"op":"run","benchmark":"LocVolCalib","device":"vega64",)"
      R"("dataset":")" + lvc_ds + R"("})",
  };
  // A cold compile's wall-clock cost is the one field that may differ.
  const auto comparable = [](const std::string& text) {
    Json j = Json::parse(text);
    if (j.find("compile_us")) j.set("compile_us", 0.0);
    return j.str(-1);
  };
  const auto stats_of = [](Json stats) {
    Json reqs = stats.get("requests");
    const double inlined = reqs.get("inline").as_double();
    reqs.set("inline", 0);
    return std::make_pair(
        stats.get("cache").str(-1) + reqs.str(-1), inlined);
  };

  const serve::Endpoint ep =
      serve::parse_endpoint("unix:/tmp/incflat_test_parity.sock");
  SocketFixture fx(ep);
  ServeClient client(ep, /*timeout_ms=*/30000);
  ServerCore direct(small_opts());
  for (const std::string& payload : seq) {
    const std::string wire = client.call_text(payload);
    std::string local;
    try {
      const Json req = Json::parse(payload);
      std::unique_ptr<CancelToken> token;
      if (const Json* dl = req.find("deadline_ms"))
        token = std::make_unique<CancelToken>(dl->as_double());
      local = direct.handle(req, token.get()).str(-1);
    } catch (const JsonParseError&) {
      local = direct.handle_text(payload);
    }
    EXPECT_EQ(comparable(wire), comparable(local)) << payload;
  }
  const auto [wire_tallies, wire_inline] =
      stats_of(client.call(Json::object().set("op", "stats")));
  const auto [local_tallies, local_inline] =
      stats_of(direct.handle(Json::object().set("op", "stats")));
  EXPECT_EQ(wire_tallies, local_tallies);
  // The warm compile, run, override, two bad warm runs, spent-deadline
  // run, tuned run and LocVolCalib rerun: eight answers on the loop thread.
  EXPECT_EQ(wire_inline, 8);
  EXPECT_EQ(local_inline, 0);
}

TEST(Socket, EndpointParsing) {
  const serve::Endpoint u = serve::parse_endpoint("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, serve::Endpoint::Kind::Unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  const serve::Endpoint t = serve::parse_endpoint("tcp:7465");
  EXPECT_EQ(t.kind, serve::Endpoint::Kind::Tcp);
  EXPECT_EQ(t.port, 7465);
  const serve::Endpoint h = serve::parse_endpoint("tcp:127.0.0.1:8080");
  EXPECT_EQ(h.host, "127.0.0.1");
  EXPECT_EQ(h.port, 8080);
  EXPECT_THROW(serve::parse_endpoint("unix:"), IoError);
  EXPECT_THROW(serve::parse_endpoint("tcp:notaport"), IoError);
  EXPECT_THROW(serve::parse_endpoint("smoke:signals"), IoError);
  // The port is all of the text after the last colon, read as one number:
  // no prefix of it, no truncated fraction.
  EXPECT_THROW(serve::parse_endpoint("tcp:80abc"), IoError);
  EXPECT_THROW(serve::parse_endpoint("tcp:8080.9"), IoError);
  EXPECT_EQ(serve::parse_endpoint("tcp:1e3").port, 1000);
  EXPECT_EQ(serve::parse_endpoint("tcp:65535").port, 65535);
  EXPECT_THROW(serve::parse_endpoint("tcp:65536"), IoError);
}

}  // namespace
}  // namespace incflat
