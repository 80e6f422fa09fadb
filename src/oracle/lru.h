// LruShard: one worker's private slice of a bounded result cache.
//
// Classic list+map LRU, extracted from OracleEngine so it can be unit
// tested directly (duplicate-key overwrite and eviction order are serving
// correctness, not implementation detail: a stale value survived into a
// refreshed entry would be served forever). The engine owns one shard per
// worker and shards batches by source node, so a shard is only ever touched
// by its worker during a batch — no locking here by design.
//
// Concurrency contract: deliberately lock-free AND annotation-free. There
// is no mutex to hang a RON_GUARDED_BY off (common/thread_annotations.h);
// the single-owner discipline is the engine's batch protocol, and it is
// checked dynamically — the tsan.* stress shard (tests/test_concurrency.cpp)
// drives shard invalidation during in-flight batches under ThreadSanitizer,
// and the deterministic epoch-tag unit tests in the same file pin the
// invalidation semantics single-threaded.
//
// Contract highlights:
//   - put() on an existing key REFRESHES recency and OVERWRITES the value.
//     Keeping the stale value would pin a pre-mutation result in cache
//     forever once overlay epochs land (the engine additionally clears
//     locate shards on epoch change — see OracleEngine::apply).
//   - capacity 0 disables the shard (enabled() == false); get/put on a
//     disabled shard are valid no-ops so callers can branch once.
//   - The shard keeps no hit accounting: get() reports hit/miss and the
//     engine counts them into its metrics registry.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ron {

template <typename Value>
class LruShard {
 public:
  explicit LruShard(std::size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Copies the cached value into `out` and refreshes recency; false on
  /// miss (or when disabled).
  bool get(std::uint64_t key, Value& out) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);  // refresh recency
    out = it->second->second;
    return true;
  }

  /// Inserts or overwrites; the touched key becomes most recent, and the
  /// least recent entry is evicted when the shard is full.
  void put(std::uint64_t key, Value value) {
    if (!enabled()) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      it->second->second = std::move(value);  // overwrite, never keep stale
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
  }

  /// Drops every entry (epoch change / snapshot swap).
  void clear() {
    order_.clear();
    map_.clear();
  }

  /// Least-recent-first key order (test hook for the eviction contract).
  std::vector<std::uint64_t> keys_by_recency() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(order_.size());
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      keys.push_back(it->first);
    }
    return keys;
  }

 private:
  using Order = std::list<std::pair<std::uint64_t, Value>>;
  std::size_t capacity_;
  Order order_;  // front = most recent
  std::unordered_map<std::uint64_t, typename Order::iterator> map_;
};

}  // namespace ron
