// In-memory LRU cache for served kernel plans.
//
// The daemon's value proposition is that a plan is compiled and tuned once
// and then selected cheaply forever (ROADMAP item 1): every client request
// keyed by (program, device profile, dataset) after the first answers from
// this cache.  One mutex guards one LRU list and one byte budget, which
// bounds resident plan memory — eviction walks the LRU tail until the new
// entry fits.
//
// Values are shared_ptrs to a CacheValue subclass: eviction only drops the
// cache's reference, so an in-flight request keeps executing against an
// entry that was just evicted under it (the shared_ptr pins it).
//
// Counters: per-cache atomics (always on, reported by the `stats` request)
// plus serve.cache_hit / serve.cache_miss / serve.evictions trace counters
// when the trace layer is enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/support/sync.h"

namespace incflat::serve {

/// Base class of cached values; the server derives its served-plan state
/// from it, tests derive synthetic payloads.
struct CacheValue {
  virtual ~CacheValue() = default;
};

struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t inserts = 0;
  size_t bytes = 0;    // resident value bytes
  size_t entries = 0;  // resident entry count
};

class PlanCache {
 public:
  /// `byte_budget` caps the sum of entry byte sizes; 0 means unlimited.
  explicit PlanCache(size_t byte_budget = size_t{64} << 20)
      : byte_budget_(byte_budget) {}

  /// Look up `key`, refreshing its LRU position.  Counts a hit or a miss
  /// unless `count` is false (internal probes — e.g. the server reusing a
  /// program-level plan while building a run entry — must not inflate
  /// the hit rate the smoke test asserts on).
  std::shared_ptr<CacheValue> find(const std::string& key, bool count = true)
      EXCLUDES(mu_);

  /// Count the hit of an entry an uncounted find(key, false) returned, for
  /// callers that probe first and commit to answering from it later.
  void count_hit();

  /// Insert `value` (of `bytes` bytes) under `key`, evicting from the LRU
  /// tail until the budget holds.  When another thread inserted `key`
  /// first, the existing entry wins and is returned — the compile race
  /// loser adopts the winner's plan, keeping one entry per key.  The
  /// returned pointer is therefore the entry callers must use.
  std::shared_ptr<CacheValue> insert(const std::string& key,
                                     std::shared_ptr<CacheValue> value,
                                     size_t bytes) EXCLUDES(mu_);

  CacheStats stats() const EXCLUDES(mu_);
  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<CacheValue> value;
    size_t bytes = 0;
  };

  void evict_locked(size_t need) REQUIRES(mu_);

  const size_t byte_budget_;
  mutable sync::Mutex mu_{"serve.cache"};
  // Most-recently-used at the front; eviction pops from the back.
  std::list<Entry> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> inserts_{0};
};

}  // namespace incflat::serve
