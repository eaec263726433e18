#ifndef TMAN_CORE_INDEX_CACHE_H_
#define TMAN_CORE_INDEX_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cachestore/lfu_cache.h"
#include "cachestore/redis_like.h"
#include "index/tshape_index.h"

namespace tman::core {

// Shapes actually used inside one enlarged element, with their optimized
// final codes (paper §IV-B(3): the tuple <element, shape, final code>).
struct ElementShapes {
  // (raw bitmap, final code), in final-code order.
  index::ShapeList shapes;

  // Returns the final code for a bitmap, or UINT32_MAX if unknown.
  uint32_t FinalCodeOf(uint32_t bits) const {
    for (const auto& [b, code] : shapes) {
      if (b == bits) return code;
    }
    return UINT32_MAX;
  }
};

// The index cache: an LFU-managed in-memory view over the durable mapping
// stored in the Redis-like service. Query processing reads shape maps
// through it (miss -> load from Redis, §IV-B(3)); ingestion registers new
// shapes through it.
//
// It also keeps the occupancy set: the sorted codes of every element a
// shape was ever registered in. Entries are added before the caller writes
// any row that references the element and are never removed, so the set
// can over-include but never miss an element that holds rows. Like the
// shape map it is built from this cache's own writes, so the backing store
// must start empty. Through the ShapeCatalogView interface the TShape
// planner uses it to skip empty subtrees and reads shape lists in place.
//
// Thread-safe. A Redis load on an LFU miss and a write to the same element
// are serialized, so a load can never re-install a map older than a
// concurrent write.
class IndexCache final : public index::ShapeCatalogView {
 public:
  // When `registry` is set, hit/miss/eviction and Redis-load events are
  // published under tman_index_cache_*.
  IndexCache(cache::RedisLikeStore* redis, size_t lfu_capacity,
             obs::MetricsRegistry* registry = nullptr);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Shape map of an element; loads from Redis on LFU miss. Never null
  // (elements outside the occupancy set yield an empty map without a
  // Redis round trip).
  std::shared_ptr<const ElementShapes> GetElement(uint64_t quad_code) const;

  // Installs/overwrites the full mapping for an element (bulk-load path and
  // re-encode path): writes through to Redis and refreshes the LFU entry.
  void PutElement(uint64_t quad_code, index::ShapeList shapes);

  // Registers a single new shape with the given final code (update path).
  void AddShape(uint64_t quad_code, uint32_t bits, uint32_t final_code);

  // index::ShapeCatalogView.
  uint64_t NextOccupied(uint64_t quad_code) const override;
  std::shared_ptr<const index::ShapeList> Shapes(
      uint64_t quad_code) const override;

  // Elements in the occupancy set, and its approximate heap footprint.
  size_t occupied_elements() const;
  size_t occupancy_bytes() const;

  uint64_t lfu_hits() const { return lfu_.hits(); }
  uint64_t lfu_misses() const { return lfu_.misses(); }
  uint64_t redis_loads() const {
    return redis_loads_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumElementLocks = 16;

  static std::string RedisKey(uint64_t quad_code);

  void MarkOccupied(uint64_t quad_code);

  // LFU lookup; on a miss, loads the element's tuples from Redis.
  std::shared_ptr<const ElementShapes> Load(uint64_t quad_code) const;

  std::mutex& ElementLock(uint64_t quad_code) const {
    return element_mu_[quad_code % kNumElementLocks];
  }

  cache::RedisLikeStore* redis_;
  mutable cache::LFUCache<uint64_t, std::shared_ptr<const ElementShapes>>
      lfu_;
  // Striped by element: held across a Redis load and its LFU install, and
  // across a Redis write and its LFU refresh.
  mutable std::array<std::mutex, kNumElementLocks> element_mu_;
  mutable std::atomic<uint64_t> redis_loads_{0};
  obs::Counter* ext_redis_loads_ = nullptr;

  mutable std::shared_mutex occupied_mu_;
  std::set<uint64_t> occupied_;
};

// Buffer shape cache (paper §IV-C): holds shapes first seen after the last
// re-encode, keyed by element. When the total buffered shape count crosses
// the threshold, the storage layer triggers a re-encode.
//
// Striped 16 ways by element so concurrent ingest threads registering
// shapes for different elements do not serialize on one mutex. The global
// buffered-shape count is a relaxed atomic; Drain locks every stripe (in
// index order, so concurrent Drains cannot deadlock) to take a consistent
// snapshot.
class BufferShapeCache {
 public:
  // Records (element, bits); returns the number of buffered shapes.
  size_t Add(uint64_t quad_code, uint32_t bits);

  bool Contains(uint64_t quad_code, uint32_t bits) const;

  // Elements with buffered shapes and those shapes.
  std::vector<std::pair<uint64_t, std::vector<uint32_t>>> Drain();

  size_t size() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kNumStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<uint32_t>> buffered;
  };

  Stripe& StripeFor(uint64_t quad_code) {
    return stripes_[quad_code % kNumStripes];
  }
  const Stripe& StripeFor(uint64_t quad_code) const {
    return stripes_[quad_code % kNumStripes];
  }

  std::array<Stripe, kNumStripes> stripes_;
  std::atomic<size_t> count_{0};
};

}  // namespace tman::core

#endif  // TMAN_CORE_INDEX_CACHE_H_
