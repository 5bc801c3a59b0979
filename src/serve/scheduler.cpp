#include "src/serve/scheduler.h"

#include <algorithm>

#include "src/support/trace.h"

namespace incflat::serve {

namespace {
/// Terminal records kept for late wait() callers; bounded so a daemon that
/// never waits (the socket layer consumes results via callbacks) cannot
/// grow this map forever.
constexpr size_t kFinishedCap = 4096;
}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
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
      std::deque<std::shared_ptr<Job>> drained;
      drained.swap(q);
      for (const auto& job : drained) {
        --stats_.queued;
        ++stats_.cancelled;
        finish_locked(job, JobState::Cancelled);
      }
    }
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_done_.notify_all();
  for (auto& t : threads_) t.join();
}

uint64_t JobScheduler::submit(JobFn fn, JobPriority pri,
                              double queue_timeout_ms, DropFn on_drop) {
  const Clock::time_point now = Clock::now();
  auto job = std::make_shared<Job>();
  job->fn = std::move(fn);
  job->on_drop = std::move(on_drop);
  job->pri = pri;
  job->enqueued = now;
  job->deadline =
      queue_timeout_ms > 0
          ? now + std::chrono::microseconds(
                      static_cast<int64_t>(queue_timeout_ms * 1000.0))
          : Clock::time_point::max();
  {
    sync::MutexLock lk(mu_);
    job->id = next_id_++;
    ++stats_.submitted;
    if (trace::enabled()) trace::count("serve.jobs_submitted");
    if (queue_cap_ > 0 &&
        static_cast<int64_t>(queues_[static_cast<int>(pri)].size()) >=
            queue_cap_) {
      // Reject-newest: the admitted jobs keep their promise; this one is
      // answered immediately (DropFn with Shed) instead of enqueued.
      ++stats_.shed;
      if (trace::enabled()) trace::count("serve.jobs_shed");
      finish_locked(job, JobState::Shed);
      return job->id;
    }
    queues_[static_cast<int>(pri)].push_back(job);
    jobs_.emplace(job->id, job);
    ++stats_.queued;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, stats_.queued);
  }
  cv_work_.notify_one();
  return job->id;
}

bool JobScheduler::cancel(uint64_t id) {
  sync::MutexLock lk(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  // By value: finish_locked erases the jobs_ entry, and with the queue's
  // copy removed below that erase drops the last other reference.
  const std::shared_ptr<Job> job = it->second;
  if (job->state == JobState::Running) {
    // Cooperative only: the job observes JobContext::cancelled() or not.
    job->cancel_flag.store(true, std::memory_order_relaxed);
    return false;
  }
  if (job->state != JobState::Queued) return false;
  auto& q = queues_[static_cast<int>(job->pri)];
  q.erase(std::remove(q.begin(), q.end(), job), q.end());
  --stats_.queued;
  ++stats_.cancelled;
  finish_locked(job, JobState::Cancelled);
  return true;
}

std::shared_ptr<JobScheduler::Job> JobScheduler::pick_locked(
    Clock::time_point now) {
  // Each class deque is FIFO, so its head is its oldest — and therefore
  // most-promoted — member: comparing the three heads by (effective
  // priority, enqueue time) finds the global pick in O(1).
  std::shared_ptr<Job> best;
  int best_eff = 99;
  for (int pri = 0; pri < 3; ++pri) {
    auto& q = queues_[pri];
    // Jobs whose queue deadline already passed complete as Expired without
    // running: their client stopped waiting long ago.
    while (!q.empty() && q.front()->deadline <= now) {
      std::shared_ptr<Job> dead = q.front();
      q.pop_front();
      --stats_.queued;
      ++stats_.expired;
      if (trace::enabled()) trace::count("serve.jobs_expired");
      finish_locked(dead, JobState::Expired);
    }
    if (q.empty()) continue;
    const std::shared_ptr<Job>& head = q.front();
    int eff = pri;
    if (promote_after_ms_ > 0) {
      const double age_ms =
          std::chrono::duration<double, std::milli>(now - head->enqueued)
              .count();
      eff = std::max(0, pri - static_cast<int>(age_ms / promote_after_ms_));
    }
    if (!best || eff < best_eff ||
        (eff == best_eff && head->enqueued < best->enqueued)) {
      best = head;
      best_eff = eff;
    }
  }
  if (best) {
    auto& q = queues_[static_cast<int>(best->pri)];
    q.erase(std::remove(q.begin(), q.end(), best), q.end());
    --stats_.queued;
  }
  return best;
}

void JobScheduler::finish_locked(const std::shared_ptr<Job>& job, JobState st) {
  job->state = st;
  jobs_.erase(job->id);
  if (finished_.size() >= kFinishedCap) finished_.erase(finished_.begin());
  finished_[job->id] = Finished{st, job->error};
  if (job->on_drop && (st == JobState::Cancelled ||
                       st == JobState::Expired || st == JobState::Shed)) {
    job->on_drop(st);
  }
  cv_done_.notify_all();
}

void JobScheduler::worker_loop() {
  sync::UniqueLock lk(mu_);
  for (;;) {
    // Explicit loop instead of a predicate lambda: clang's thread-safety
    // analysis is intraprocedural and would treat the lambda as a separate,
    // lock-free function reading guarded state.
    while (!stop_ && stats_.queued == 0) cv_work_.wait(mu_);
    if (stop_) return;
    std::shared_ptr<Job> job = pick_locked(Clock::now());
    if (!job) continue;  // everything queued had expired
    job->state = JobState::Running;
    ++stats_.running;
    lk.unlock();
    JobContext ctx(&job->cancel_flag);
    std::exception_ptr err;
    try {
      job->fn(ctx);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    job->error = err;
    --stats_.running;
    ++stats_.executed;
    if (err) ++stats_.failed;
    if (trace::enabled()) trace::count("serve.jobs_executed");
    finish_locked(job, err ? JobState::Failed : JobState::Done);
  }
}

JobState JobScheduler::wait(uint64_t id) {
  sync::MutexLock lk(mu_);
  // Not gated on stop_: shutdown cancels queued jobs (erasing them from
  // jobs_ under this mutex) and workers finish running jobs before joining,
  // so every submitted id still leaves jobs_ — returning early on stop_
  // would report a still-Running job as Done and swallow its exception.
  while (jobs_.find(id) != jobs_.end()) cv_done_.wait(mu_);
  auto it = finished_.find(id);
  if (it == finished_.end()) return JobState::Done;  // reaped long ago
  const Finished fin = it->second;
  finished_.erase(it);
  if (fin.error) std::rethrow_exception(fin.error);
  return fin.state;
}

SchedulerStats JobScheduler::stats() const {
  sync::MutexLock lk(mu_);
  return stats_;
}

}  // namespace incflat::serve
