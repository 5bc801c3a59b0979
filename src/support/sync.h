// Annotated synchronization primitives: the one sanctioned way to lock.
//
// Every mutex in the long-lived layers (src/serve/, src/support/trace) is
// one of the wrappers below, which add two checks to plain std::mutex:
//
//   * Clang Thread Safety Analysis: the wrappers carry capability
//     annotations, and the GUARDED_BY / REQUIRES / ACQUIRE / RELEASE macros
//     let data declare its lock and functions declare their locking
//     contract.  A clang build with -Wthread-safety (CMake option
//     INCFLAT_WTHREAD_SAFETY, CI job `thread-safety`) then *proves* the
//     contracts: an unlocked access to a GUARDED_BY member, a missed
//     REQUIRES, or an unbalanced acquire is a compile error.  Off clang the
//     macros expand to nothing — gcc builds are unaffected.
//
//   * A two-level lock rule, checked on every acquisition in every build.
//     Each lock is an ordinary lock or a leaf (sync::Level).  A thread
//     holds at most one ordinary lock and, under it, at most one leaf; it
//     takes nothing while it holds a leaf.  An acquisition that breaks the
//     rule aborts before it blocks, printing
//     "sync: acquiring 'X' while holding 'Y'" — so a self-relock aborts
//     instead of hanging.  CondVar::wait checks the re-acquisition it makes
//     on waking before it sleeps.  Under this rule no cycle among these
//     locks can form, so no lock-order graph is needed.  The check is two
//     thread-local slots; it never calls into the trace layer (trace's own
//     mutex is a leaf sync::Mutex).
#pragma once

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (the spellings from the
// clang documentation; plain C++ off clang).

#if defined(__clang__)
#define INCFLAT_TSA_ATTR(x) __attribute__((x))
#else
#define INCFLAT_TSA_ATTR(x)  // no-op off clang
#endif

#define CAPABILITY(x) INCFLAT_TSA_ATTR(capability(x))
#define SCOPED_CAPABILITY INCFLAT_TSA_ATTR(scoped_lockable)
#define GUARDED_BY(x) INCFLAT_TSA_ATTR(guarded_by(x))
#define REQUIRES(...) INCFLAT_TSA_ATTR(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) INCFLAT_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define RELEASE(...) INCFLAT_TSA_ATTR(release_capability(__VA_ARGS__))
#define EXCLUDES(...) INCFLAT_TSA_ATTR(locks_excluded(__VA_ARGS__))

namespace incflat::sync {

namespace lockdep {
/// Always false: kept only because perfbench/bench/common.cpp reads it to
/// label instrumented builds.
inline bool enabled() { return false; }
}  // namespace lockdep

/// A lock's place in the two-level rule (see the header comment).
enum class Level { Ordinary, Leaf };

/// Check the rule for acquiring `name` at `level` on this thread and record
/// it as held; aborts on a violation.  Called by the wrappers below.
void note_acquire(const char* name, Level level);
/// Forget this thread's held lock at `level`.
void note_release(Level level);

// ---------------------------------------------------------------------------
// Annotated primitives.

/// A std::mutex with a capability annotation, a name and a level.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` must be a string literal; the rule's abort message shows it.
  explicit Mutex(const char* name, Level level = Level::Ordinary)
      : name_(name), level_(level) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    note_acquire(name_, level_);
    mu_.lock();
  }
  void unlock() RELEASE() {
    mu_.unlock();
    note_release(level_);
  }

 private:
  friend class CondVar;  // waits on mu_ directly, checking the rule first
  std::mutex mu_;
  const char* name_;
  Level level_;
};

/// RAII exclusive lock, std::lock_guard-shaped: no unlock before scope end.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock with mid-scope unlock()/lock(), std::unique_lock-
/// shaped; the worker-loop idiom (lock, pick work, unlock, execute, relock)
/// uses it so every exceptional exit still releases exactly once.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), owns_(true) {
    mu_.lock();
  }
  ~UniqueLock() RELEASE() {
    if (owns_) mu_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void unlock() RELEASE() {
    mu_.unlock();
    owns_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }

 private:
  Mutex& mu_;
  bool owns_;
};

/// Condition variable for sync::Mutex.  Deliberately pred-less: callers
/// write the explicit `while (!cond) cv.wait(mu);` loop so the condition
/// reads its GUARDED_BY members inside a function that visibly holds the
/// mutex — a predicate lambda would be analyzed as a separate, lockless
/// function and defeat -Wthread-safety.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, wait, re-acquire.  The caller must hold `mu`
  /// (and still does when this returns); spurious wakeups are the caller's
  /// loop to absorb.  Waking re-acquires `mu`, so the rule is checked for
  /// that acquisition before sleeping: waiting on an ordinary lock while
  /// holding a leaf aborts, as taking the ordinary lock there would.
  void wait(Mutex& mu) REQUIRES(mu) {
    note_release(mu.level_);
    note_acquire(mu.name_, mu.level_);
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership returns to the caller's scope
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace incflat::sync
