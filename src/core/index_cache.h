#ifndef TMAN_CORE_INDEX_CACHE_H_
#define TMAN_CORE_INDEX_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cachestore/lfu_cache.h"
#include "cachestore/redis_like.h"
#include "index/tshape_index.h"

namespace tman::core {

// Shapes actually used inside one enlarged element, with their final codes
// (paper §IV-B(3): the tuple <element, shape, final code>).
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
// shapes through PlaceShapes, its only write path.
//
// A registered shape's code never changes, so no row is ever re-keyed:
// codes are gapped (index::SpreadCodes) and a later shape takes a free code
// next to its most similar shapes (index::PlaceShape).
//
// It also keeps the occupancy set: the sorted codes of every element a
// shape was ever registered in. Entries are added before the caller writes
// any row that references the element and are never removed, so the set
// can over-include but never miss an element that holds rows. Like the
// shape map it is built from this cache's own writes, so the backing store
// must start empty. Through the ShapeCatalogView interface the TShape
// planner uses it to skip empty subtrees and reads shape lists in place.
//
// Thread-safe. Each element's lock is held across a Redis load and its LFU
// install, and across PlaceShapes' read, picks and write-through, so a
// load never re-installs a map older than a concurrent write and two
// writers never give one bitmap two codes or two bitmaps one code.
class IndexCache final : public index::ShapeCatalogView {
 public:
  // Elements hold shapes of `shape_bits` cells (TShapeConfig::shape_bits),
  // so each has 2^shape_bits codes. When `registry` is set,
  // hit/miss/eviction and Redis-load events are published under
  // tman_index_cache_*.
  IndexCache(cache::RedisLikeStore* redis, size_t lfu_capacity, int shape_bits,
             obs::MetricsRegistry* registry = nullptr);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Shape map of an element; loads from Redis on LFU miss. Never null
  // (elements outside the occupancy set yield an empty map without a
  // Redis round trip).
  std::shared_ptr<const ElementShapes> GetElement(uint64_t quad_code) const;

  // Returns the codes of the distinct bitmaps `bits` in element
  // `quad_code`, in the order of `bits`, registering those the element
  // does not hold yet. If the element holds no shape, `bits` (in the
  // caller's optimized order) get codes spread over the code space;
  // otherwise each new bitmap is placed by cheapest insertion, in turn.
  // Codes already registered never change. The element is in the
  // occupancy set when this returns.
  std::vector<uint32_t> PlaceShapes(uint64_t quad_code,
                                    const std::vector<uint32_t>& bits);

  // index::ShapeCatalogView.
  uint64_t NextOccupied(uint64_t quad_code) const override;
  std::shared_ptr<const index::ShapeList> Shapes(
      uint64_t quad_code) const override;

  // Elements in the occupancy set, and its approximate heap footprint.
  size_t occupied_elements() const;
  size_t occupancy_bytes() const;

  // Shapes registered over all elements.
  uint64_t registered_shapes() const {
    return registered_shapes_.load(std::memory_order_relaxed);
  }

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

  // Load with the element's lock already held.
  std::shared_ptr<const ElementShapes> LoadLocked(uint64_t quad_code) const;

  std::mutex& ElementLock(uint64_t quad_code) const {
    return element_mu_[quad_code % kNumElementLocks];
  }

  cache::RedisLikeStore* redis_;
  mutable cache::LFUCache<uint64_t, std::shared_ptr<const ElementShapes>>
      lfu_;
  const uint64_t code_space_;
  // Striped by element: held across a Redis load and its LFU install, and
  // across PlaceShapes.
  mutable std::array<std::mutex, kNumElementLocks> element_mu_;
  mutable std::atomic<uint64_t> redis_loads_{0};
  std::atomic<uint64_t> registered_shapes_{0};
  obs::Counter* ext_redis_loads_ = nullptr;

  mutable std::shared_mutex occupied_mu_;
  std::set<uint64_t> occupied_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_INDEX_CACHE_H_
