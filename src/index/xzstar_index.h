#ifndef TMAN_INDEX_XZSTAR_INDEX_H_
#define TMAN_INDEX_XZSTAR_INDEX_H_

#include <cstdint>
#include <vector>

#include "geo/geometry.h"
#include "index/tshape_index.h"
#include "index/value_range.h"

namespace tman::index {

// XZ* index (TraSS, ICDE'22; the paper's spatial baseline for similarity
// queries). The enlarged element is divided into 2x2 sub-quads and the
// index space is the combination of sub-quads the trajectory visits. As
// the paper notes (§V-F), XZ* is TShape with alpha=beta=2, raw bitmap
// shape codes, and no index cache; its query enumerates all 15 non-empty
// sub-quad combinations of each intersecting element.
class XZStarIndex {
 public:
  explicit XZStarIndex(int max_resolution)
      : tshape_(TShapeConfig{2, 2, max_resolution}) {}

  uint64_t Encode(const std::vector<geo::TimedPoint>& points) const {
    return tshape_.Encode(points).index_value;
  }

  TShapeEncoding EncodeFull(const std::vector<geo::TimedPoint>& points) const {
    return tshape_.Encode(points);
  }

  std::vector<ValueRange> QueryRanges(
      const geo::MBR& query, TShapeIndex::QueryStats* stats = nullptr) const {
    static const AllShapes kAllShapes;
    return tshape_.QueryRanges(query, &kAllShapes, stats);
  }

  const TShapeIndex& tshape() const { return tshape_; }

 private:
  // XZ* keeps no catalog: every element counts as occupied and holds all
  // 15 non-empty bitmaps, coded by their raw value.
  class AllShapes final : public ShapeCatalogView {
   public:
    uint64_t NextOccupied(uint64_t quad_code) const override {
      return quad_code;
    }
    std::shared_ptr<const ShapeList> Shapes(uint64_t) const override {
      return shapes_;
    }

   private:
    const std::shared_ptr<const ShapeList> shapes_ = [] {
      auto shapes = std::make_shared<ShapeList>();
      for (uint32_t bits = 1; bits < 16; bits++) {
        shapes->emplace_back(bits, bits);
      }
      return shapes;
    }();
  };

  TShapeIndex tshape_;
};

}  // namespace tman::index

#endif  // TMAN_INDEX_XZSTAR_INDEX_H_
