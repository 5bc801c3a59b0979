// Sharded in-memory LRU cache for served kernel plans.
//
// The daemon's value proposition is that a plan is compiled and tuned once
// and then selected cheaply forever (ROADMAP item 1): every client request
// keyed by (program hash, device profile, dataset shape) after the first
// answers from this cache.  The cache is sharded by key hash so concurrent
// server threads rarely contend on one mutex, each shard keeps an intrusive
// LRU list, and a global byte budget (spread evenly over the shards) bounds
// resident plan memory — eviction walks a shard's LRU tail until the new
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
#include <vector>

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
  /// `byte_budget` caps the sum of entry byte sizes (split evenly across
  /// shards); 0 means unlimited.  `shards` is clamped to >= 1.
  explicit PlanCache(size_t byte_budget = size_t{64} << 20, int shards = 8);

  /// Look up `key`, refreshing its LRU position.  Counts a hit or a miss
  /// unless `count` is false (internal probes — e.g. the server reusing a
  /// program-level plan while building a shape entry — must not inflate
  /// the hit rate the smoke test asserts on).
  std::shared_ptr<CacheValue> find(const std::string& key, bool count = true);

  /// Insert `value` (of `bytes` bytes) under `key`, evicting from the
  /// shard's LRU tail until the shard budget holds.  When another thread
  /// inserted `key` first, the existing entry wins and is returned — the
  /// compile race loser adopts the winner's plan, keeping one entry per
  /// key.  The returned pointer is therefore the entry callers must use.
  std::shared_ptr<CacheValue> insert(const std::string& key,
                                     std::shared_ptr<CacheValue> value,
                                     size_t bytes);

  /// Drop one key; false when absent.  (Counts as an eviction.)
  bool erase(const std::string& key);

  /// Drop everything (bytes/entries to zero; counters keep accumulating).
  void clear();

  CacheStats stats() const;
  size_t byte_budget() const { return byte_budget_; }
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<CacheValue> value;
    size_t bytes = 0;
  };
  struct Shard {
    sync::Mutex mu{"serve.cache_shard"};
    // Most-recently-used at the front; eviction pops from the back.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const std::string& key);
  void evict_locked(Shard& s, size_t need) REQUIRES(s.mu);

  size_t byte_budget_;
  size_t shard_budget_;  // byte_budget_ / shards (0 = unlimited)
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> inserts_{0};
};

}  // namespace incflat::serve
