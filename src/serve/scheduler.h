// Priority job scheduler for a long-lived server: the daemon's one thread
// pool.
//
// Server work arrives continuously, tune jobs take seconds while run jobs
// take microseconds, and a disconnecting client should be able to abandon
// work it queued.  JobScheduler runs a fixed set of workers (one mutex,
// condition-variable dispatch, the pick_width() worker-count rule) and
// adds:
//
//   * three priority classes (High = run, Normal = compile, Low = tune)
//     drained in strict priority order, with age promotion — a job waiting
//     longer than `promote_after_ms` is treated as the next class up — so a
//     burst of High traffic delays Low jobs but never starves them;
//   * cancellation: cancel(id) unschedules a still-queued job, and flips a
//     cooperative flag a *running* job can poll via JobContext::cancelled()
//     (no daemon job polls it: a served tune stops through
//     TunerOptions::budget_ms, which ServerCore::do_tune derives from the
//     request's CancelToken);
//   * per-job queue timeouts: a job still queued past its deadline is
//     completed as Expired instead of run — a tune job that sat behind a
//     run burst for too long is dropped, not executed against a client
//     that gave up on it long ago;
//   * bounded queues with reject-newest shedding: each priority class
//     holds at most `queue_cap` waiting jobs; a submit against a full
//     class completes the *new* job as Shed without enqueueing it.
//     Reject-newest (not drop-oldest) keeps the answered set FIFO — the
//     jobs already admitted were promised progress, and the shed client
//     gets an immediate structured "overloaded" answer it can retry,
//     instead of silently displacing someone older.
//
// Jobs never throw across the scheduler: an escaping exception is captured
// and rethrown by the first wait() on that job.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/support/sync.h"

namespace incflat::serve {

enum class JobPriority { High = 0, Normal = 1, Low = 2 };

enum class JobState {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
  Expired,
  Shed,  // rejected at submit: the priority class's queue was full
};

const char* job_state_name(JobState s);

/// Handed to a running job for cooperative cancellation checks.
class JobContext {
 public:
  bool cancelled() const { return cancelled_->load(std::memory_order_relaxed); }

 private:
  friend class JobScheduler;
  explicit JobContext(const std::atomic<bool>* flag) : cancelled_(flag) {}
  const std::atomic<bool>* cancelled_;
};

struct SchedulerStats {
  int64_t submitted = 0;
  int64_t executed = 0;   // ran to completion (Done or Failed)
  int64_t failed = 0;     // executed jobs that threw
  int64_t cancelled = 0;  // unscheduled while still queued
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

  /// Cancels every queued job, waits for running ones, joins the workers.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  using JobFn = std::function<void(JobContext&)>;
  /// Notification that a job was dropped — completed as Cancelled, Expired
  /// or Shed *without running*.  Callers that owe someone an answer per
  /// submitted job (the socket layer's in-order response queue) use it to
  /// substitute a timeout/cancelled/overloaded response; without it a
  /// dropped job would stall every response sequenced after it.  Invoked
  /// with the scheduler lock held: must be cheap and must not call back
  /// in.  Fires exactly once per dropped job, never for a job that ran.
  using DropFn = std::function<void(JobState)>;

  /// Enqueue a job; returns its id (monotonic from 1).  `queue_timeout_ms`
  /// > 0 expires the job if no worker has started it within that long.
  /// When the class queue is at queue_cap the job is shed instead of
  /// enqueued (its DropFn fires with Shed before submit returns; wait(id)
  /// reports Shed).
  uint64_t submit(JobFn fn, JobPriority pri = JobPriority::Normal,
                  double queue_timeout_ms = 0, DropFn on_drop = nullptr)
      EXCLUDES(mu_);

  /// Unschedule a queued job (true) or flag a running one for cooperative
  /// cancellation (false — it still runs to wherever it checks the flag;
  /// wait() reports its final state).  False for finished/unknown ids too.
  bool cancel(uint64_t id) EXCLUDES(mu_);

  /// Block until the job reached a terminal state; rethrows the job's
  /// exception if it Failed.  Returns the terminal state.  Ids are
  /// remembered until waited on exactly once (a second wait on the same id
  /// returns Done immediately).
  JobState wait(uint64_t id) EXCLUDES(mu_);

  int width() const { return static_cast<int>(threads_.size()); }
  SchedulerStats stats() const EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    uint64_t id = 0;
    JobFn fn;
    DropFn on_drop;
    JobPriority pri = JobPriority::Normal;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // time_point::max() = no timeout
    JobState state = JobState::Queued;
    std::atomic<bool> cancel_flag{false};
    std::exception_ptr error;
  };

  void worker_loop() EXCLUDES(mu_);
  /// Highest-effective-priority oldest queued job, honoring expiry; null
  /// when the queue is empty.
  std::shared_ptr<Job> pick_locked(Clock::time_point now) REQUIRES(mu_);
  void finish_locked(const std::shared_ptr<Job>& job, JobState st)
      REQUIRES(mu_);

  /// Terminal record kept for wait(): bounded (oldest-dropped), since the
  /// daemon's socket layer consumes results via callbacks and never waits.
  struct Finished {
    JobState state = JobState::Done;
    std::exception_ptr error;
  };

  mutable sync::Mutex mu_{"serve.scheduler"};
  sync::CondVar cv_work_, cv_done_;
  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<Job>> queues_[3] GUARDED_BY(mu_);  // by priority
  // Queued + running, by id.
  std::map<uint64_t, std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
  std::map<uint64_t, Finished> finished_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  double promote_after_ms_;
  int64_t queue_cap_;  // per-class waiting-queue bound; <= 0 = unbounded
  bool stop_ GUARDED_BY(mu_) = false;
  SchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace incflat::serve
