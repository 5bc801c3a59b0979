#include "src/serve/plan_cache.h"

#include "src/support/trace.h"

namespace incflat::serve {

std::shared_ptr<CacheValue> PlanCache::find(const std::string& key,
                                            bool count) {
  sync::MutexLock lk(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (count) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled()) trace::count("serve.cache_miss");
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (count) count_hit();
  return it->second->value;
}

void PlanCache::count_hit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled()) trace::count("serve.cache_hit");
}

void PlanCache::evict_locked(size_t need) {
  if (byte_budget_ == 0) return;
  // Evict cold entries until `need` more bytes fit; never below zero
  // entries (an oversized value is admitted alone and evicted by the next
  // insert — refusing it would make its key recompile forever).
  while (!lru_.empty() && bytes_ + need > byte_budget_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (trace::enabled()) trace::count("serve.evictions");
  }
}

std::shared_ptr<CacheValue> PlanCache::insert(const std::string& key,
                                              std::shared_ptr<CacheValue> value,
                                              size_t bytes) {
  sync::MutexLock lk(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Lost a compile race: the first insert wins so every requester shares
    // one entry (and its run counter).
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }
  evict_locked(bytes);
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return lru_.front().value;
}

CacheStats PlanCache::stats() const {
  CacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.inserts = inserts_.load(std::memory_order_relaxed);
  sync::MutexLock lk(mu_);
  st.bytes = bytes_;
  st.entries = lru_.size();
  return st;
}

}  // namespace incflat::serve
