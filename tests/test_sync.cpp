// Tests for the annotated sync layer (src/support/sync.h): primitive
// semantics, the two-level lock rule (death tests for each way to break
// it, plain tests for the nestings it allows), and a seeded multi-thread
// stress of counter bumps racing a trace flush.  The stress test doubles
// as ThreadSanitizer fodder: the TSan CI job runs this binary.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/support/sync.h"
#include "src/support/trace.h"

namespace incflat {
namespace {

TEST(SyncPrimitives, CondVarWakesExplicitWaitLoop) {
  // The waiter holds `mu` again when it wakes, and a leaf under it is
  // still allowed: the scheduler's shape (wait for work, count under the
  // lock).  The final relock aborts unless every release cleared its slot.
  sync::Mutex mu("test.cv");
  sync::Mutex leaf("test.cv_leaf", sync::Level::Leaf);
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
    sync::MutexLock ll(leaf);
  }
  t.join();
  EXPECT_TRUE(ready);
  sync::MutexLock after(mu);
}

// ---------------------------------------------------------------------------
// The lock rule: each violation aborts before blocking, naming both locks.
// The "threadsafe" style re-runs the test binary for each death statement,
// which is what a binary that has started threads (and TSan) needs.

class LockRuleDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockRuleDeathTest, OrdinaryUnderOrdinaryAborts) {
  sync::Mutex a("test.outer");
  sync::Mutex b("test.inner");
  EXPECT_DEATH(
      {
        sync::MutexLock la(a);
        sync::MutexLock lb(b);
      },
      "sync: acquiring 'test\\.inner' while holding 'test\\.outer'");
}

TEST_F(LockRuleDeathTest, SameMutexTwiceAborts) {
  // On a plain std::mutex this would hang forever.  The second lock is
  // taken in a lambda, which clang's thread-safety analysis checks as a
  // separate function, so -Werror=thread-safety does not reject the
  // deliberate double acquisition.
  sync::Mutex a("test.self");
  EXPECT_DEATH(
      {
        sync::MutexLock l1(a);
        [&] { sync::MutexLock l2(a); }();
      },
      "sync: acquiring 'test\\.self' while holding 'test\\.self'");
}

TEST_F(LockRuleDeathTest, AnythingUnderALeafAborts) {
  sync::Mutex leaf("test.leaf", sync::Level::Leaf);
  sync::Mutex other_leaf("test.leaf2", sync::Level::Leaf);
  sync::Mutex ordinary("test.ordinary");
  EXPECT_DEATH(
      {
        sync::MutexLock ll(leaf);
        sync::MutexLock lo(ordinary);
      },
      "sync: acquiring 'test\\.ordinary' while holding 'test\\.leaf'");
  EXPECT_DEATH(
      {
        sync::MutexLock lo(ordinary);
        sync::MutexLock ll(leaf);
        sync::MutexLock l2(other_leaf);
      },
      "sync: acquiring 'test\\.leaf2' while holding 'test\\.leaf'");
  // Waking from a wait re-takes the ordinary lock, so waiting on it with
  // a leaf held aborts before the thread sleeps.
  sync::CondVar cv;
  EXPECT_DEATH(
      {
        sync::MutexLock lo(ordinary);
        sync::MutexLock ll(leaf);
        cv.wait(ordinary);
      },
      "sync: acquiring 'test\\.ordinary' while holding 'test\\.leaf'");
}

// ---------------------------------------------------------------------------
// Nestings the rule allows.  Each test ends by taking a fresh ordinary
// lock, which aborts unless every release cleared its slot.

TEST(LockRule, LeafUnderOrdinaryPasses) {
  sync::Mutex ordinary("test.ordinary");
  sync::Mutex leaf("test.leaf", sync::Level::Leaf);
  for (int i = 0; i < 2; ++i) {
    sync::MutexLock lo(ordinary);
    sync::MutexLock ll(leaf);
  }
  { sync::MutexLock ll(leaf); }  // a leaf alone
  sync::Mutex after("test.after");
  sync::MutexLock la(after);
}

TEST(LockRule, UniqueLockUnlockAndRelockPasses) {
  sync::Mutex a("test.a");
  sync::Mutex b("test.b");
  {
    sync::UniqueLock lk(a);
    lk.unlock();
    { sync::MutexLock lb(b); }  // nothing held between unlock and relock
    lk.lock();
  }
  sync::MutexLock lb(b);
}

// An earlier trace bug: counter bumps racing a concurrent span flush
// corrupted the aggregate buffers.  Reconstructed as a seeded stress —
// fixed thread count and iteration schedule — so a regression fails
// deterministically under TSan.
TEST(SyncStress, TraceFlushRace) {
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
  trace::set_enabled(false);
  trace::reset();
}

}  // namespace
}  // namespace incflat
