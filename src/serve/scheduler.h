// Priority job scheduler for a long-lived server: the daemon's one thread
// pool.
//
// Server work arrives continuously and tune jobs take seconds while a cold
// compile takes milliseconds.  (A run or compile whose cache entry already
// exists never gets here: the socket layer answers it on its loop thread
// through ServerCore::try_handle_cached.)  JobScheduler runs a fixed set of
// workers (one mutex, condition-variable dispatch, the pick_width()
// worker-count rule) and adds:
//
//   * three priority classes (High = run, Normal = compile, Low = tune)
//     drained in strict priority order, with age promotion — a job waiting
//     longer than `promote_after_ms` is treated as the next class up — so a
//     burst of High traffic delays Low jobs but never starves them;
//   * per-job queue timeouts: a job still queued past its deadline is
//     dropped as Expired instead of run — a tune job that sat behind a
//     run burst for too long is dropped, not executed against a client
//     that gave up on it long ago;
//   * bounded queues with reject-newest shedding: each priority class
//     holds at most `queue_cap` waiting jobs; a submit against a full
//     class drops the *new* job as Shed without enqueueing it.
//     Reject-newest (not drop-oldest) keeps the answered set FIFO — the
//     jobs already admitted were promised progress, and the shed client
//     gets an immediate structured "overloaded" answer it can retry,
//     instead of silently displacing someone older.
//
// A job that never runs reports why through its DropFn; a job that ran has
// answered for itself.  Jobs never throw across the scheduler: an escaping
// exception is counted in SchedulerStats::failed and the worker carries on.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/support/sync.h"

namespace incflat::serve {

enum class JobPriority { High = 0, Normal = 1, Low = 2 };

/// Why a job ended without running — what a DropFn reports.
enum class JobState {
  Cancelled,  // still queued when the scheduler shut down
  Expired,    // queue deadline passed before a worker got there
  Shed,       // rejected at submit: the priority class's queue was full
};

const char* job_state_name(JobState s);

struct SchedulerStats {
  int64_t submitted = 0;
  int64_t executed = 0;   // ran to completion, thrown or not
  int64_t failed = 0;     // executed jobs that threw
  int64_t cancelled = 0;  // still queued at shutdown
  int64_t expired = 0;    // queue deadline passed before a worker got there
  int64_t shed = 0;       // rejected at submit against a full class queue
  int64_t queued = 0;     // currently waiting
  int64_t running = 0;    // currently executing
  int64_t max_queue_depth = 0;
};

class JobScheduler {
 public:
  /// `workers` <= 0 picks pick_width's default: min(hardware concurrency,
  /// 8), at least 1.  `promote_after_ms` is the age at which a
  /// waiting job is drained as if it were one priority class higher
  /// (anti-starvation); <= 0 disables promotion.  `queue_cap` bounds each
  /// priority class's waiting queue: a submit against a full class sheds
  /// the new job (see the header comment); <= 0 = unbounded.
  explicit JobScheduler(int workers = 0, double promote_after_ms = 1000.0,
                        int64_t queue_cap = 0);

  /// The worker-count rule: a positive request wins verbatim; otherwise
  /// min(hardware, 8) — where `hardware` is hardware_concurrency(), which
  /// the standard allows to return 0 ("not computable") and which is
  /// therefore clamped to >= 1 *before* the min pick, so the zero-CPU case
  /// degrades to one worker instead of a nonsense width.
  static int pick_width(int requested, unsigned hardware);

  /// Drops every queued job as Cancelled, waits for running ones, joins
  /// the workers.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  using JobFn = std::function<void()>;
  /// Notification that a job was dropped — ended Cancelled, Expired or
  /// Shed *without running*.  Callers that owe someone an answer per
  /// submitted job (the socket layer's in-order response queue) use it to
  /// substitute a timeout/cancelled/overloaded response; without it a
  /// dropped job would stall every response sequenced after it.  Invoked
  /// with the scheduler lock held: must be cheap and must not call back
  /// in.  Fires exactly once per dropped job, never for a job that ran.
  using DropFn = std::function<void(JobState)>;

  /// Enqueue a job.  `queue_timeout_ms` > 0 expires the job if no worker
  /// has started it within that long.  When the class queue is at
  /// queue_cap the job is shed instead of enqueued: its DropFn fires with
  /// Shed before submit returns.
  void submit(JobFn fn, JobPriority pri = JobPriority::Normal,
              double queue_timeout_ms = 0, DropFn on_drop = nullptr)
      EXCLUDES(mu_);

  int width() const { return static_cast<int>(threads_.size()); }
  SchedulerStats stats() const EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    JobFn fn;
    DropFn on_drop;
    JobPriority pri = JobPriority::Normal;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // time_point::max() = no timeout
  };

  void worker_loop() EXCLUDES(mu_);
  /// Pop the highest-effective-priority oldest queued job into *out,
  /// dropping expired ones on the way; false when the queues are empty.
  bool pick_locked(Clock::time_point now, Job* out) REQUIRES(mu_);
  static void drop(const Job& job, JobState st);

  mutable sync::Mutex mu_{"serve.scheduler"};
  sync::CondVar cv_work_;
  std::vector<std::thread> threads_;
  std::deque<Job> queues_[3] GUARDED_BY(mu_);  // by priority
  double promote_after_ms_;
  int64_t queue_cap_;  // per-class waiting-queue bound; <= 0 = unbounded
  bool stop_ GUARDED_BY(mu_) = false;
  SchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace incflat::serve
