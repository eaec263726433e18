#ifndef TMAN_INDEX_TSHAPE_INDEX_H_
#define TMAN_INDEX_TSHAPE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/geometry.h"
#include "index/quadkey.h"
#include "index/shape_encoding.h"
#include "index/value_range.h"

namespace tman::index {

// TShape index (paper §IV-A2): the spatial shape of a trajectory is
// represented inside an "enlarged element" of alpha x beta same-resolution
// quad cells anchored at the cell containing the MBR's lower-left corner.
// A bitset over those cells (the *shape code*) records which cells the
// polyline actually visits, so the index space is non-rectangular and far
// tighter than the XZ family's enlarged rectangles.
//
// Index value (Eq. 3): TShape(code(E), s) = (code(E) << alpha*beta) | s.
// With the index-cache optimisation, s is the *final code* assigned by the
// shape-order optimisation of §IV-A2(3) instead of the raw bitmap.
struct TShapeConfig {
  int alpha = 3;
  int beta = 3;
  int max_resolution = 15;  // g; requires 2g+1+alpha*beta <= 64

  int shape_bits() const { return alpha * beta; }
};

struct TShapeEncoding {
  QuadCell anchor;       // lower-left cell of the enlarged element
  uint64_t quad_code;    // code(E)
  uint32_t shape;        // raw shape bitmap (bit dy*alpha+dx)
  uint64_t index_value;  // Eq. 3 with the raw bitmap as shape code
};

// Read-only view of a shape catalog (paper §IV-B(3)) as TShape query
// processing consumes it: where the occupied elements are and which shapes
// each holds. Backed by TMan's index cache; a null view switches queries to
// no-cache mode (whole-element ranges).
class ShapeCatalogView {
 public:
  // The smallest occupied element code >= `quad_code`, or UINT64_MAX if
  // there is none. An element is occupied once a shape was registered in
  // it. The answer may include elements that no longer hold a shape, which
  // costs planning work but never results; it must never skip one that
  // does.
  virtual uint64_t NextOccupied(uint64_t quad_code) const = 0;

  // The shapes of an occupied element, sorted by final code, shared rather
  // than copied; never null. The planner relies on the order: the codes
  // between two consecutive shapes are unused.
  virtual std::shared_ptr<const ShapeList> Shapes(uint64_t quad_code) const = 0;

 protected:
  ~ShapeCatalogView() = default;
};

class TShapeIndex {
 public:
  explicit TShapeIndex(const TShapeConfig& config);

  const TShapeConfig& config() const { return cfg_; }

  // Resolution of the enlarged element for a normalized MBR (Lemmas 3-4).
  int Resolution(const geo::MBR& mbr) const;

  // Encodes a normalized polyline. Shape bit b = dy*alpha+dx is set iff
  // the polyline intersects cell (anchor.x+dx, anchor.y+dy).
  TShapeEncoding Encode(const std::vector<geo::TimedPoint>& points) const;

  // Index value for an element code and a shape code (raw or final).
  uint64_t IndexValue(uint64_t quad_code, uint32_t shape_code) const {
    return (quad_code << cfg_.shape_bits()) | shape_code;
  }

  uint64_t QuadCodeOf(uint64_t index_value) const {
    return index_value >> cfg_.shape_bits();
  }
  uint32_t ShapeCodeOf(uint64_t index_value) const {
    return static_cast<uint32_t>(index_value) &
           ((1u << cfg_.shape_bits()) - 1);
  }

  // True if the shape bitmap anchored at `anchor` touches `query`.
  bool ShapeIntersects(const QuadCell& anchor, uint32_t shape,
                       const geo::MBR& query) const;

  struct QueryStats {
    uint64_t elements_visited = 0;
    uint64_t shapes_checked = 0;
  };

  // Algorithm 2. With a `catalog`, cells whose subtree holds no occupied
  // element are skipped with everything below them, and intersecting
  // elements contribute only the used shapes that touch the query: one
  // range per run of consecutive shapes (in code order) that all touch it,
  // spanning the unused codes between them. Those codes hold no row when
  // the plan is made; a row written into one later is dropped by the
  // plan's exact push-down filter if it misses the query. Without a
  // catalog (no index cache) every intersecting element contributes its
  // entire shape-code range and the storage-layer filter does the pruning.
  std::vector<ValueRange> QueryRanges(const geo::MBR& query,
                                      const ShapeCatalogView* catalog,
                                      QueryStats* stats = nullptr) const;

  // Candidates of a similarity query (DESIGN.md "Similarity planning"): a
  // superset of the index values of every row whose trajectory C lies
  // within distance eps of a probe P under discrete Fréchet, DTW or
  // Hausdorff. `probe` is P's normalized MBR (not clamped) and `eps_x`,
  // `eps_y` are eps in normalized units per axis. Each measure matches
  // every point of C to a point of P and back, so C lies inside B, the
  // probe grown by eps, and P's MBR lies inside C's grown by eps. The walk
  //   - skips a cell with its whole subtree unless the probe, clamped into
  //     the unit square, lies inside the cell's enlarged rectangle grown by
  //     eps;
  //   - keeps a shape only if every cell it sets meets B;
  //   - emits a whole subtree once its enlarged rectangle lies inside the
  //     clamped probe grown by eps, when the finest elements could still
  //     cover the probe.
  // It consults `catalog` as QueryRanges does (occupancy pruning, runs of
  // kept shapes spanning the unused codes); without one, every element the
  // subtree rule keeps contributes its entire shape-code range. The walk
  // widens eps by far more than its own rounding; callers widen it for
  // the rounding of their normalization.
  std::vector<ValueRange> CoverageRanges(const geo::MBR& probe, double eps_x,
                                         double eps_y,
                                         const ShapeCatalogView* catalog,
                                         QueryStats* stats = nullptr) const;

  // The rectangle of the full enlarged element of `anchor`.
  geo::MBR EnlargedRect(const QuadCell& anchor) const;

 private:
  TShapeConfig cfg_;
};

}  // namespace tman::index

#endif  // TMAN_INDEX_TSHAPE_INDEX_H_
