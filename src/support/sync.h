// Annotated synchronization primitives: the one sanctioned way to lock.
//
// Every mutex in the long-lived layers (src/serve/, src/support/trace,
// src/exec/runtime) is one of the wrappers below, which buys two enforcing
// tiers on top of plain std::mutex:
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
//   * lockdep, a runtime lock-order validator: every Mutex registers a
//     named *lock class* ("serve.stats", "trace.state", ...), and when enabled
//     (sync::lockdep::set_enabled, INCFLAT_LOCKDEP=1, or the
//     INCFLAT_LOCKDEP CMake option) each thread keeps a held-lock stack and
//     the process grows a global acquisition-order graph.  Acquiring B
//     while holding A inserts the edge A->B; an insertion that would close
//     a cycle is an order inversion — a deadlock waiting for the right
//     interleaving — and is reported *at acquire time*, before any actual
//     deadlock, with both acquisition chains (the current thread's and the
//     historical chain that established the reverse path).  Violations are
//     rendered through the Diagnostic machinery and queryable for tests;
//     tools/soak_faults and the serve test suite certify their whole lock
//     hierarchy acyclic this way.
//
// Disabled-cost discipline (same rule as the trace layer): with lockdep off
// a Mutex::lock() is one relaxed atomic load on top of std::mutex::lock().
// Nothing in this header ever calls into the trace layer — trace's own
// internal mutex is a sync::Mutex, so per-acquisition trace counters would
// recurse; lockdep keeps its own tallies instead, published on demand as
// `sync.*` counters by lockdep::publish_trace_counters() (the daemon's
// stats op and soak_faults call it).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/support/diag.h"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros.
//
// The canonical spellings from the clang documentation, guarded so that
// non-clang compilers (and clang without -Wthread-safety) see plain C++.
// Defined with #ifndef so a TU that already picked up compatible
// definitions (e.g. from a vendored header) does not redefine them.

#if defined(__clang__) && !defined(SWIG)
#define INCFLAT_TSA_ATTR(x) __attribute__((x))
#else
#define INCFLAT_TSA_ATTR(x)  // no-op off clang
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) INCFLAT_TSA_ATTR(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY INCFLAT_TSA_ATTR(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) INCFLAT_TSA_ATTR(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) INCFLAT_TSA_ATTR(pt_guarded_by(x))
#endif
#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) INCFLAT_TSA_ATTR(acquired_before(__VA_ARGS__))
#endif
#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) INCFLAT_TSA_ATTR(acquired_after(__VA_ARGS__))
#endif
#ifndef REQUIRES
#define REQUIRES(...) INCFLAT_TSA_ATTR(requires_capability(__VA_ARGS__))
#endif
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  INCFLAT_TSA_ATTR(requires_shared_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) INCFLAT_TSA_ATTR(acquire_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  INCFLAT_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) INCFLAT_TSA_ATTR(release_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  INCFLAT_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) INCFLAT_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) INCFLAT_TSA_ATTR(locks_excluded(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) INCFLAT_TSA_ATTR(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) INCFLAT_TSA_ATTR(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS INCFLAT_TSA_ATTR(no_thread_safety_analysis)
#endif

namespace incflat::sync {

namespace lockdep {

/// Globally enable/disable the lock-order validator.  Thread-safe; may be
/// flipped at any time (locks already held keep working — the held stack
/// tolerates pops of classes it never saw pushed).
void set_enabled(bool on);
bool enabled();

/// Enable iff the INCFLAT_LOCKDEP environment variable is set to anything
/// but "" or "0" (tool startup hook).  Returns the resulting enabled state.
bool enable_from_env();

/// Intern `name` as a lock class; returns its stable id.  Classes are
/// deduplicated by name: every PlanCache shard shares one class, every
/// ServedPlan entry shares one class — lock *order* is a property of the
/// code structure, not of individual mutex instances.
int register_class(const char* name);

/// Name of a registered class id.
std::string class_name(int id);

/// One detected order inversion: acquiring `acquire_class` while holding
/// `held_class`, when history already ordered them the other way around.
struct Violation {
  std::string held_class;     // held by this thread at detection time
  std::string acquire_class;  // the acquisition that would close the cycle
  /// This thread's acquisition chain, outermost first, ending with the
  /// offending class: what is held *now*.
  std::vector<std::string> current_chain;
  /// The historical chain that established the reverse ordering (the held
  /// stack snapshot recorded when the first edge of the reverse path was
  /// created), also ending with its acquired class.
  std::vector<std::string> prior_chain;

  /// Structured rendering ("lock-order-inversion" check, both chains in
  /// the message).
  Diagnostic to_diagnostic() const;
  std::string str() const;
};

/// Snapshot of everything recorded so far.
struct Stats {
  int64_t classes = 0;
  int64_t edges = 0;         // distinct ordered pairs observed
  int64_t acquisitions = 0;  // lock() calls validated while enabled
  int64_t violations = 0;
};
Stats stats();

/// All violations detected since the last reset(), in detection order.
/// Each inversion pair is recorded (and printed to stderr) only once.
std::vector<Violation> violations();

/// Drop the acquisition-order graph and the violation log (class
/// registrations are kept — ids must stay stable for live mutexes).
void reset();

/// Push the current Stats into the trace layer as sync.lock_classes /
/// sync.lock_edges / sync.lock_acquisitions / sync.lock_violations gauges
/// (no-op when tracing is disabled).  Called from stats endpoints, never
/// from the acquisition path.
void publish_trace_counters();

// Acquisition hooks, called by the wrappers below.  Public so that other
// blocking primitives could participate, but not meant for direct use.
// `before_acquire` validates + records edges against the caller's held
// stack *before* blocking; `push_held`/`pop_held` maintain the stack.
void before_acquire(int cls);
void push_held(int cls);
void pop_held(int cls);

}  // namespace lockdep

// ---------------------------------------------------------------------------
// Annotated primitives.

/// A std::mutex with a capability annotation and a named lockdep class.
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` is the lock class (see lockdep::register_class); it must be a
  /// string literal.  Distinct mutexes guarding the same kind of state
  /// should share a name.
  explicit Mutex(const char* name = "mutex")
      : class_(lockdep::register_class(name)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    const bool dep = lockdep::enabled();
    if (dep) lockdep::before_acquire(class_);
    mu_.lock();
    if (dep) lockdep::push_held(class_);
  }
  void unlock() RELEASE() {
    mu_.unlock();
    if (lockdep::enabled()) lockdep::pop_held(class_);
  }
  /// Non-blocking, so it records no ordering edge (it cannot deadlock),
  /// but a successful try_lock still joins the held stack: later blocking
  /// acquisitions order themselves after it.
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (lockdep::enabled()) lockdep::push_held(class_);
    return true;
  }

  /// Statically tell the analysis this mutex is held (for call paths whose
  /// exclusivity the analysis cannot see).  Runtime no-op.
  void assert_held() const ASSERT_CAPABILITY(this) {}

  int lock_class() const { return class_; }

  /// The wrapped handle, for CondVar only (bypassing the wrapper anywhere
  /// else would silently skip both enforcement tiers).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  int class_;
};

/// A std::shared_mutex with capability annotations; reader/writer methods
/// feed the same lockdep class (ordering is about blocking, and a writer
/// blocks behind readers and vice versa).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "shared_mutex")
      : class_(lockdep::register_class(name)) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    const bool dep = lockdep::enabled();
    if (dep) lockdep::before_acquire(class_);
    mu_.lock();
    if (dep) lockdep::push_held(class_);
  }
  void unlock() RELEASE() {
    mu_.unlock();
    if (lockdep::enabled()) lockdep::pop_held(class_);
  }
  void lock_shared() ACQUIRE_SHARED() {
    const bool dep = lockdep::enabled();
    if (dep) lockdep::before_acquire(class_);
    mu_.lock_shared();
    if (dep) lockdep::push_held(class_);
  }
  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    if (lockdep::enabled()) lockdep::pop_held(class_);
  }

  int lock_class() const { return class_; }

 private:
  std::shared_mutex mu_;
  int class_;
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
  bool owns_lock() const { return owns_; }
  Mutex& mutex() { return mu_; }

 private:
  Mutex& mu_;
  bool owns_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
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
  /// loop to absorb.  The lockdep held stack tracks the release and the
  /// re-acquisition, so ordering constraints created by re-locking under
  /// other held locks are observed.
  void wait(Mutex& mu) REQUIRES(mu);

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace incflat::sync
