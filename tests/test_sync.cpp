// Tests for the annotated sync layer (src/support/sync.h): primitive
// semantics, the lockdep lock-order validator, and seeded multi-thread
// stress reconstructing the PR-7 trace-flush bug shape.  The stress tests
// double as ThreadSanitizer fodder: the TSan CI job runs this binary.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/support/pool.h"
#include "src/support/sync.h"
#include "src/support/trace.h"

// The deliberate-inversion tests below construct real reverse-order
// acquisitions, which ThreadSanitizer's own potential-deadlock detector
// (watching the same property as lockdep) correctly reports before the
// lockdep assertion can run.  Under TSan those tests are skipped; the
// plain-build CI job asserts the lockdep reports instead.
#if defined(__SANITIZE_THREAD__)
#define INCFLAT_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define INCFLAT_UNDER_TSAN 1
#endif
#endif
#ifndef INCFLAT_UNDER_TSAN
#define INCFLAT_UNDER_TSAN 0
#endif

namespace incflat {
namespace {

using sync::lockdep::Violation;

/// Every lockdep test starts from a clean order graph with the validator
/// on, and leaves it off so unrelated tests pay nothing.  The class
/// registry deliberately survives reset() (ids must stay stable for live
/// mutexes), so tests assert on deltas, not absolute class counts.
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sync::lockdep::reset();
    sync::lockdep::set_enabled(true);
  }
  void TearDown() override {
    sync::lockdep::set_enabled(false);
    sync::lockdep::reset();
  }
};

TEST(SyncPrimitives, MutexLockUnlockTryLock) {
  sync::Mutex mu("test.basic");
  mu.lock();
  EXPECT_FALSE(mu.try_lock());  // std::mutex: relock of a held lock fails
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncPrimitives, SharedMutexAllowsConcurrentReaders) {
  sync::SharedMutex mu("test.shared");
  mu.lock_shared();
  std::atomic<bool> second_reader_entered{false};
  std::thread t([&] {
    sync::ReaderMutexLock lk(mu);
    second_reader_entered.store(true);
  });
  t.join();
  EXPECT_TRUE(second_reader_entered.load());
  mu.unlock_shared();
  sync::WriterMutexLock wlk(mu);  // and a writer still gets through
}

TEST(SyncPrimitives, CondVarWakesExplicitWaitLoop) {
  sync::Mutex mu("test.cv");
  sync::CondVar cv;
  bool ready = false;
  std::thread t([&] {
    sync::MutexLock lk(mu);
    ready = true;
    cv.notify_one();
  });
  {
    sync::MutexLock lk(mu);
    while (!ready) cv.wait(mu);
  }
  t.join();
  EXPECT_TRUE(ready);
}

TEST_F(LockdepTest, ConsistentOrderReportsNothing) {
  sync::Mutex a("test.order_a");
  sync::Mutex b("test.order_b");
  for (int i = 0; i < 3; ++i) {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);
  }
  EXPECT_TRUE(sync::lockdep::violations().empty());
  const auto st = sync::lockdep::stats();
  EXPECT_GE(st.acquisitions, 6);
  EXPECT_GE(st.edges, 1);  // a->b observed
}

TEST_F(LockdepTest, InversionIsReportedAtAcquireTimeWithBothChains) {
#if INCFLAT_UNDER_TSAN
  GTEST_SKIP() << "deliberate inversion: TSan's deadlock detector fires first";
#endif
  sync::Mutex a("test.inv_a");
  sync::Mutex b("test.inv_b");
  {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);  // establishes a -> b
  }
  {
    // The inverted order on a *single* thread: no deadlock is possible
    // here, yet lockdep must still report — that is the whole point of
    // detection at acquire time, before an unlucky interleaving hangs.
    sync::MutexLock lb(b);
    sync::MutexLock la(a);  // b -> a closes the cycle
  }
  const std::vector<Violation> vs = sync::lockdep::violations();
  ASSERT_EQ(vs.size(), 1u);
  const Violation& v = vs[0];
  EXPECT_EQ(v.held_class, "test.inv_b");
  EXPECT_EQ(v.acquire_class, "test.inv_a");
  // This thread's chain: what it held walking into the inversion.
  ASSERT_EQ(v.current_chain.size(), 2u);
  EXPECT_EQ(v.current_chain[0], "test.inv_b");
  EXPECT_EQ(v.current_chain[1], "test.inv_a");
  // The historical chain that established the reverse ordering.
  ASSERT_EQ(v.prior_chain.size(), 2u);
  EXPECT_EQ(v.prior_chain[0], "test.inv_a");
  EXPECT_EQ(v.prior_chain[1], "test.inv_b");
  // And the Diagnostic rendering names both.
  const std::string msg = v.str();
  EXPECT_NE(msg.find("test.inv_a"), std::string::npos);
  EXPECT_NE(msg.find("test.inv_b"), std::string::npos);
  EXPECT_NE(msg.find("lock-order-inversion"), std::string::npos);
}

TEST_F(LockdepTest, InversionReportedOncePerPair) {
#if INCFLAT_UNDER_TSAN
  GTEST_SKIP() << "deliberate inversion: TSan's deadlock detector fires first";
#endif
  sync::Mutex a("test.once_a");
  sync::Mutex b("test.once_b");
  {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);
  }
  for (int i = 0; i < 4; ++i) {
    sync::MutexLock lb(b);
    sync::MutexLock la(a);
  }
  EXPECT_EQ(sync::lockdep::violations().size(), 1u);
}

TEST_F(LockdepTest, TransitiveThreeLockCycle) {
#if INCFLAT_UNDER_TSAN
  GTEST_SKIP() << "deliberate inversion: TSan's deadlock detector fires first";
#endif
  sync::Mutex a("test.tri_a");
  sync::Mutex b("test.tri_b");
  sync::Mutex c("test.tri_c");
  {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);  // a -> b
  }
  {
    sync::MutexLock lb(b);
    sync::MutexLock lc(c);  // b -> c
  }
  {
    sync::MutexLock lc(c);
    sync::MutexLock la(a);  // c -> a: closes a -> b -> c -> a
  }
  const std::vector<Violation> vs = sync::lockdep::violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].held_class, "test.tri_c");
  EXPECT_EQ(vs[0].acquire_class, "test.tri_a");
}

TEST_F(LockdepTest, SameClassTwiceOnOneStackIsAViolation) {
  // Two *instances* of one class nested: order within a class is undefined
  // (think two PlanCache shards), so the discipline bans it outright.
  sync::Mutex first("test.twice");
  sync::Mutex second("test.twice");
  sync::MutexLock l1(first);
  sync::MutexLock l2(second);
  const std::vector<Violation> vs = sync::lockdep::violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].held_class, "test.twice");
  EXPECT_EQ(vs[0].acquire_class, "test.twice");
}

TEST_F(LockdepTest, ResetClearsGraphAndViolations) {
#if INCFLAT_UNDER_TSAN
  GTEST_SKIP() << "deliberate inversion: TSan's deadlock detector fires first";
#endif
  sync::Mutex a("test.reset_a");
  sync::Mutex b("test.reset_b");
  {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);
  }
  {
    sync::MutexLock lb(b);
    sync::MutexLock la(a);
  }
  ASSERT_EQ(sync::lockdep::violations().size(), 1u);
  sync::lockdep::reset();
  EXPECT_TRUE(sync::lockdep::violations().empty());
  EXPECT_EQ(sync::lockdep::stats().edges, 0);
  // Classes survive reset: ids must stay stable for live mutexes.
  EXPECT_EQ(sync::lockdep::class_name(a.lock_class()), "test.reset_a");
  // And the graph genuinely restarts: the old a->b history is gone, so the
  // reverse order alone is fine now.
  {
    sync::MutexLock lb(b);
    sync::MutexLock la(a);
  }
  EXPECT_TRUE(sync::lockdep::violations().empty());
}

TEST_F(LockdepTest, CondVarWaitDropsAndReacquiresHeldStack) {
  // While a thread waits on a cv its mutex is *not* held; the held stack
  // must reflect that, or the waiter's re-acquisition would spuriously
  // order every lock the wakeup path holds.  notify under b while the
  // waiter re-acquires a: no a<->b edge in either direction may form.
  sync::Mutex a("test.cvdep_a");
  sync::Mutex b("test.cvdep_b");
  sync::CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    sync::MutexLock la(a);
    while (!ready) cv.wait(a);
  });
  {
    sync::MutexLock lb(b);
    {
      sync::MutexLock la(a);
      ready = true;
    }
    cv.notify_all();
  }
  waiter.join();
  // b->a was recorded by the notifier; the waiter must not have recorded
  // a->anything while asleep.  A clean report is the assertion.
  EXPECT_TRUE(sync::lockdep::violations().empty());
}

TEST_F(LockdepTest, DisabledCostsNoEdges) {
#if INCFLAT_UNDER_TSAN
  GTEST_SKIP() << "deliberate inversion: TSan's deadlock detector fires first";
#endif
  sync::lockdep::set_enabled(false);
  sync::Mutex a("test.off_a");
  sync::Mutex b("test.off_b");
  {
    sync::MutexLock lb(b);
    sync::MutexLock la(a);
  }
  {
    sync::MutexLock la(a);
    sync::MutexLock lb(b);
  }
  EXPECT_TRUE(sync::lockdep::violations().empty());
  EXPECT_EQ(sync::lockdep::stats().edges, 0);
}

TEST_F(LockdepTest, PublishTraceCountersEmitsGauges) {
  trace::reset();
  trace::set_enabled(true);
  sync::Mutex a("test.pub_a");
  { sync::MutexLock la(a); }
  sync::lockdep::publish_trace_counters();
  const auto counters = trace::counters();
  bool saw_acq = false;
  for (const auto& [name, value] : counters) {
    if (name == "sync.lock_acquisitions") {
      saw_acq = true;
      EXPECT_GE(value, 1);
    }
  }
  EXPECT_TRUE(saw_acq);
  trace::set_enabled(false);
  trace::reset();
}

// The PR-7 trace bug shape: counter bumps racing a concurrent span flush
// corrupted the aggregate buffers.  Reconstructed as a seeded stress —
// fixed thread count and iteration schedule — so a regression fails
// deterministically under TSan (and lockdep certifies the trace.state
// lock class stays a leaf).
TEST_F(LockdepTest, TraceFlushRaceStress) {
  trace::reset();
  trace::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        trace::Span span("sync_stress.span", "test");
        trace::count("sync_stress.counter");
        if (t == 0 && i % 16 == 0) trace::flush_spans();  // the racing flush
      }
    });
  }
  for (auto& t : ts) t.join();
  trace::flush_spans();
  int64_t bumps = 0;
  for (const auto& [name, value] : trace::counters())
    if (name == "sync_stress.counter") bumps = value;
  EXPECT_EQ(bumps, int64_t{kThreads} * kIters);  // no lost updates
  EXPECT_TRUE(sync::lockdep::violations().empty());
  trace::set_enabled(false);
  trace::reset();
}

// WorkerPool under tracing exercises the layer's one sanctioned cross-class
// edge (pool.mu -> trace.state) from many threads at once; lockdep must
// certify it and nothing else.
TEST_F(LockdepTest, WorkerPoolWithTracingIsLockdepClean) {
  trace::reset();
  trace::set_enabled(true);
  {
    WorkerPool pool(4);
    std::atomic<int> total{0};
    for (int round = 0; round < 8; ++round) {
      pool.run(32, [&](int) { total.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(total.load(), 8 * 32);
  }
  EXPECT_TRUE(sync::lockdep::violations().empty());
  trace::set_enabled(false);
  trace::reset();
}

}  // namespace
}  // namespace incflat
