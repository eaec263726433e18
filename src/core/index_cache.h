#ifndef TMAN_CORE_INDEX_CACHE_H_
#define TMAN_CORE_INDEX_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cachestore/lfu_cache.h"
#include "cluster/cluster.h"
#include "common/status.h"
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

// Bitmaps to place in one element, in the caller's order.
struct ShapeRequest {
  uint64_t quad_code = 0;
  std::vector<uint32_t> bits;
};

// The index cache: an LFU over the shape catalog, whose durable copy is one
// row per element in the meta table (§IV-B(3)): key kCatalogPrefix ++
// BE64(element code), value the element's (bitmap, final code) pairs in
// code order, fixed32 each. Query processing reads shape lists through the
// LFU (a miss costs one Get); ingestion registers new shapes through
// PlaceShapes, the only write path. Open rebuilds the occupancy set from
// one scan of those rows, so a reopened store plans as before the close.
//
// A registered shape's code never changes, so no row is ever re-keyed and
// a catalog row only grows: codes are gapped (index::SpreadCodes) and a
// later shape takes a free code next to its most similar shapes
// (index::PlaceShape).
//
// It also keeps the occupancy set: the sorted codes of every element that
// holds a shape. PlaceShapes adds an element once its catalog row is
// written, before the caller writes any row that references it, and
// nothing removes one, so the set can over-include but never miss an
// element that holds rows. Through the ShapeCatalogView interface the
// TShape planner uses it to skip empty subtrees and reads shape lists in
// place.
//
// Thread-safe. One catalog lock is held across PlaceShapes' reads, picks,
// catalog write and publication, and across each LFU-miss load and its
// install, so a load never installs a list older than a concurrent write
// and two writers never give one bitmap two codes or two bitmaps one code.
class IndexCache final : public index::ShapeCatalogView {
 public:
  // First key byte of catalog rows; the meta table's config row starts
  // with '\0'.
  static constexpr char kCatalogPrefix = 'c';

  // `meta` stores the catalog rows. Elements hold shapes of `shape_bits`
  // cells (TShapeConfig::shape_bits), so each has 2^shape_bits codes. When
  // `registry` is set, hit/miss/eviction and catalog-load events are
  // published under tman_index_cache_*.
  IndexCache(cluster::ClusterTable* meta, size_t lfu_capacity, int shape_bits,
             obs::MetricsRegistry* registry = nullptr);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Rebuilds the occupancy set and the shape count from one scan of the
  // catalog rows; lists load into the LFU on first use. Call once, before
  // any other method.
  Status Open();

  // Shape list of an element; loads its catalog row on an LFU miss. Never
  // null (elements outside the occupancy set, and a failed load, yield an
  // empty list).
  std::shared_ptr<const ElementShapes> GetElement(uint64_t quad_code) const;

  // Places the requests in order and sets (*codes)[r][i] to the code of
  // requests[r].bits[i]. An element that holds no shape gets its request's
  // bitmaps (distinct, in the caller's optimized order) spread over the
  // code space; otherwise each new bitmap is placed by cheapest insertion,
  // in turn. Codes already registered never change. The changed elements'
  // rows are written in one meta-table batch; only then are their lists
  // installed in the LFU and the elements marked occupied. If the write
  // fails, nothing is published and the error is returned.
  Status PlaceShapes(const std::vector<ShapeRequest>& requests,
                     std::vector<std::vector<uint32_t>>* codes);

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

  // What Open read: catalog rows, the shapes in them, and the time taken.
  struct OpenStats {
    uint64_t elements = 0;
    uint64_t shapes = 0;
    double ms = 0;
  };
  const OpenStats& open_stats() const { return open_stats_; }

  uint64_t catalog_loads() const {
    return catalog_loads_.load(std::memory_order_relaxed);
  }

 private:
  static std::string CatalogKey(uint64_t quad_code);

  // LFU lookup; on a miss, loads the element's catalog row.
  std::shared_ptr<const ElementShapes> Load(uint64_t quad_code) const;

  // Reads the element's catalog row and installs it in the LFU; mu_ held.
  Status LoadLocked(uint64_t quad_code,
                    std::shared_ptr<const ElementShapes>* out) const;

  cluster::ClusterTable* meta_;
  mutable cache::LFUCache<uint64_t, std::shared_ptr<const ElementShapes>>
      lfu_;
  const uint64_t code_space_;
  // The catalog lock: held across PlaceShapes and across each LFU-miss
  // load and its install.
  mutable std::mutex mu_;
  mutable std::atomic<uint64_t> catalog_loads_{0};
  std::atomic<uint64_t> registered_shapes_{0};
  obs::Counter* ext_catalog_loads_ = nullptr;
  OpenStats open_stats_;

  mutable std::shared_mutex occupied_mu_;
  std::set<uint64_t> occupied_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_INDEX_CACHE_H_
