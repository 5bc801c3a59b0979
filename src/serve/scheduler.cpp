#include "src/serve/scheduler.h"

#include <algorithm>

#include "src/exec/runtime.h"
#include "src/support/trace.h"

namespace incflat::serve {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Cancelled: return "cancelled";
    case JobState::Expired: return "expired";
    case JobState::Shed: return "shed";
  }
  return "?";
}

int JobScheduler::pick_width(int requested, unsigned hardware) {
  if (requested > 0) return requested;
  // The clamp also guards the unsigned->int cast against absurd platform
  // values.
  const int hw = hardware == 0
                     ? 1
                     : static_cast<int>(std::min(hardware, 1024u));
  return std::min(hw, 8);
}

JobScheduler::JobScheduler(int workers, double promote_after_ms,
                           int64_t queue_cap)
    : promote_after_ms_(promote_after_ms), queue_cap_(queue_cap) {
  const int n = pick_width(workers, std::thread::hardware_concurrency());
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

JobScheduler::~JobScheduler() {
  {
    sync::MutexLock lk(mu_);
    for (auto& q : queues_) {
      for (const Job& job : q) {
        --stats_.queued;
        ++stats_.cancelled;
        drop(job, JobState::Cancelled);
      }
      q.clear();
    }
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void JobScheduler::submit(JobFn fn, JobPriority pri, double queue_timeout_ms,
                          DropFn on_drop) {
  const Clock::time_point now = Clock::now();
  Job job;
  job.fn = std::move(fn);
  job.on_drop = std::move(on_drop);
  job.pri = pri;
  job.enqueued = now;
  // A timeout past the clock's range, such as the 1e18 ms a CancelToken
  // with no reachable deadline has left, is no timeout.
  job.deadline = queue_timeout_ms > 0
                     ? deadline_after_ms(now, queue_timeout_ms)
                     : Clock::time_point::max();
  {
    sync::MutexLock lk(mu_);
    ++stats_.submitted;
    if (trace::enabled()) trace::count("serve.jobs_submitted");
    auto& q = queues_[static_cast<int>(pri)];
    if (queue_cap_ > 0 && static_cast<int64_t>(q.size()) >= queue_cap_) {
      // Reject-newest: the admitted jobs keep their promise; this one is
      // answered immediately (DropFn with Shed) instead of enqueued.
      ++stats_.shed;
      if (trace::enabled()) trace::count("serve.jobs_shed");
      drop(job, JobState::Shed);
      return;
    }
    q.push_back(std::move(job));
    ++stats_.queued;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, stats_.queued);
  }
  cv_work_.notify_one();
}

bool JobScheduler::pick_locked(Clock::time_point now, Job* out) {
  // Each class deque is FIFO, so its head is its oldest — and therefore
  // most-promoted — member: comparing the three heads by (effective
  // priority, enqueue time) finds the global pick in O(1).
  std::deque<Job>* best = nullptr;
  int best_eff = 99;
  for (int pri = 0; pri < 3; ++pri) {
    auto& q = queues_[pri];
    // Jobs whose queue deadline already passed are dropped as Expired
    // without running: their client stopped waiting long ago.
    while (!q.empty() && q.front().deadline <= now) {
      --stats_.queued;
      ++stats_.expired;
      if (trace::enabled()) trace::count("serve.jobs_expired");
      drop(q.front(), JobState::Expired);
      q.pop_front();
    }
    if (q.empty()) continue;
    const Job& head = q.front();
    int eff = pri;
    if (promote_after_ms_ > 0) {
      const double age_ms =
          std::chrono::duration<double, std::milli>(now - head.enqueued)
              .count();
      eff = std::max(0, pri - static_cast<int>(age_ms / promote_after_ms_));
    }
    if (!best || eff < best_eff ||
        (eff == best_eff && head.enqueued < best->front().enqueued)) {
      best = &q;
      best_eff = eff;
    }
  }
  if (!best) return false;
  *out = std::move(best->front());
  best->pop_front();
  --stats_.queued;
  return true;
}

void JobScheduler::drop(const Job& job, JobState st) {
  if (job.on_drop) job.on_drop(st);
}

void JobScheduler::worker_loop() {
  sync::UniqueLock lk(mu_);
  Job job;
  for (;;) {
    // Explicit loop instead of a predicate lambda: clang's thread-safety
    // analysis is intraprocedural and would treat the lambda as a separate,
    // lock-free function reading guarded state.
    while (!stop_ && stats_.queued == 0) cv_work_.wait(mu_);
    if (stop_) return;
    if (!pick_locked(Clock::now(), &job)) continue;  // all had expired
    ++stats_.running;
    lk.unlock();
    bool threw = false;
    try {
      job.fn();
    } catch (...) {
      threw = true;
    }
    // Release the job's captures (the request, its token) off the lock.
    job = Job{};
    lk.lock();
    --stats_.running;
    ++stats_.executed;
    if (threw) ++stats_.failed;
    if (trace::enabled()) trace::count("serve.jobs_executed");
  }
}

SchedulerStats JobScheduler::stats() const {
  sync::MutexLock lk(mu_);
  return stats_;
}

}  // namespace incflat::serve
