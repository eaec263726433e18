#ifndef TMAN_CACHESTORE_LFU_CACHE_H_
#define TMAN_CACHESTORE_LFU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace tman::cache {

namespace internal {

// One unsharded O(1) LFU shard (frequency-bucket list design). Ties inside
// a frequency bucket break LRU. Synchronization and stats live in the
// sharded wrapper below; the shard only owns its mutex and structure.
template <typename K, typename V>
class LFUShard {
 public:
  explicit LFUShard(size_t capacity) : capacity_(capacity) {}

  LFUShard(const LFUShard&) = delete;
  LFUShard& operator=(const LFUShard&) = delete;

  // Returns true and sets *value if present (bumps frequency).
  bool Get(const K& key, V* value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    Touch(it);
    *value = it->second.value;
    return true;
  }

  // Inserts or overwrites. Returns the number of entries evicted (0 or 1).
  size_t Put(const K& key, V value) {
    if (capacity_ == 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.value = std::move(value);
      Touch(it);
      return 0;
    }
    size_t evicted = 0;
    if (entries_.size() >= capacity_) {
      evicted = EvictOne();
    }
    auto& bucket = buckets_[1];
    bucket.push_front(key);
    entries_.emplace(key, Entry{std::move(value), 1, bucket.begin()});
    if (min_freq_ == 0 || min_freq_ > 1) min_freq_ = 1;
    return evicted;
  }

  bool Erase(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    RemoveFromBucket(it);
    entries_.erase(it);
    return true;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    buckets_.clear();
    min_freq_ = 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    V value;
    uint64_t freq;
    typename std::list<K>::iterator pos;
  };

  using EntryMap = std::unordered_map<K, Entry>;

  void Touch(typename EntryMap::iterator it) {
    const uint64_t old_freq = it->second.freq;
    auto& old_bucket = buckets_[old_freq];
    old_bucket.erase(it->second.pos);
    if (old_bucket.empty()) {
      buckets_.erase(old_freq);
      if (min_freq_ == old_freq) min_freq_ = old_freq + 1;
    }
    const uint64_t new_freq = old_freq + 1;
    auto& bucket = buckets_[new_freq];
    bucket.push_front(it->first);
    it->second.freq = new_freq;
    it->second.pos = bucket.begin();
  }

  void RemoveFromBucket(typename EntryMap::iterator it) {
    auto& bucket = buckets_[it->second.freq];
    bucket.erase(it->second.pos);
    if (bucket.empty()) buckets_.erase(it->second.freq);
  }

  size_t EvictOne() {
    auto bit = buckets_.find(min_freq_);
    if (bit == buckets_.end()) {
      // min_freq_ is stale; find the smallest occupied bucket.
      if (buckets_.empty()) return 0;
      bit = buckets_.begin();
      for (auto i = buckets_.begin(); i != buckets_.end(); ++i) {
        if (i->first < bit->first) bit = i;
      }
    }
    const K victim = bit->second.back();
    bit->second.pop_back();
    if (bit->second.empty()) buckets_.erase(bit);
    entries_.erase(victim);
    return 1;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  EntryMap entries_;
  std::unordered_map<uint64_t, std::list<K>> buckets_;
  uint64_t min_freq_ = 0;
};

}  // namespace internal

// Sharded O(1) LFU cache. TMan's index cache uses this policy to keep hot
// enlarged-element shape maps in memory (paper §IV-B(3)).
//
// Large caches are split into 16 shards by key hash, each with its own
// mutex, so concurrent readers on the multicore query path do not contend
// on one global lock. Eviction then approximates global LFU (least
// frequent within the victim's shard), which is the standard sharded-cache
// trade-off. Small caches (capacity < kShardableCapacity) keep a single
// shard and therefore exact global LFU order — per-shard capacities of one
// or two entries would thrash, and exactness at tiny sizes is what unit
// tests rely on.
template <typename K, typename V>
class LFUCache {
 public:
  // Capacity below which the cache stays unsharded (exact global LFU).
  static constexpr size_t kShardableCapacity = 256;
  static constexpr size_t kNumShards = 16;

  explicit LFUCache(size_t capacity)
      : shard_count_(capacity >= kShardableCapacity ? kNumShards : 1) {
    // Split the exact capacity across shards (first shards take the
    // remainder) so the sharded total never exceeds `capacity`.
    const size_t base = capacity / shard_count_;
    const size_t rem = capacity % shard_count_;
    shards_.reserve(shard_count_);
    for (size_t i = 0; i < shard_count_; i++) {
      shards_.push_back(std::make_unique<internal::LFUShard<K, V>>(
          base + (i < rem ? 1 : 0)));
    }
  }

  LFUCache(const LFUCache&) = delete;
  LFUCache& operator=(const LFUCache&) = delete;

  // Returns true and sets *value if present (bumps frequency).
  bool Get(const K& key, V* value) {
    if (Shard(key).Get(key, value)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (ext_hits_ != nullptr) ext_hits_->Inc();
      return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (ext_misses_ != nullptr) ext_misses_->Inc();
    return false;
  }

  // Inserts or overwrites. Evicts the least frequently used entry in the
  // key's shard if that shard is full.
  void Put(const K& key, V value) {
    const size_t evicted = Shard(key).Put(key, std::move(value));
    if (evicted != 0) {
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
      if (ext_evictions_ != nullptr) ext_evictions_->Inc(evicted);
    }
  }

  bool Erase(const K& key) { return Shard(key).Erase(key); }

  void Clear() {
    for (auto& s : shards_) s->Clear();
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s->size();
    return n;
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  size_t shard_count() const { return shard_count_; }

  // Mirrors hit/miss/eviction events into registry counters (in addition
  // to the internal totals above). Call before the cache sees traffic;
  // any pointer may be null.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions) {
    ext_hits_ = hits;
    ext_misses_ = misses;
    ext_evictions_ = evictions;
  }

 private:
  internal::LFUShard<K, V>& Shard(const K& key) {
    if (shard_count_ == 1) return *shards_[0];
    // Finalizer mix so weak std::hash implementations (identity for
    // integers) still spread across shards.
    uint64_t h = static_cast<uint64_t>(std::hash<K>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h % shard_count_];
  }

  const size_t shard_count_;
  std::vector<std::unique_ptr<internal::LFUShard<K, V>>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  obs::Counter* ext_hits_ = nullptr;
  obs::Counter* ext_misses_ = nullptr;
  obs::Counter* ext_evictions_ = nullptr;
};

}  // namespace tman::cache

#endif  // TMAN_CACHESTORE_LFU_CACHE_H_
