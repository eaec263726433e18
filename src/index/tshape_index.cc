#include "index/tshape_index.h"

#include <cassert>
#include <cmath>
#include <deque>

namespace tman::index {

TShapeIndex::TShapeIndex(const TShapeConfig& config) : cfg_(config) {
  // 64-bit capacity check from §IV-A2(2): 2g+1+alpha*beta <= 64.
  assert(2 * cfg_.max_resolution + 1 + cfg_.shape_bits() <= 64);
  assert(cfg_.alpha >= 2 && cfg_.beta >= 2);
}

int TShapeIndex::Resolution(const geo::MBR& mbr) const {
  const double extent =
      std::max(mbr.width() / cfg_.alpha, mbr.height() / cfg_.beta);
  int l;
  if (extent <= 0) {
    return cfg_.max_resolution;
  }
  // Lemma 3: l = floor(log_0.5(max(w/alpha, h/beta))).
  l = static_cast<int>(std::floor(std::log2(1.0 / extent)));
  l = std::min(l, cfg_.max_resolution);
  if (l < 1) return 1;

  // Lemma 4: the enlarged element anchored at the lower-left corner's cell
  // must reach past the MBR on both axes; otherwise use l-1.
  const double w = 1.0 / static_cast<double>(1u << l);
  const double ax = std::floor(mbr.min_x / w) * w;
  const double ay = std::floor(mbr.min_y / w) * w;
  if (ax + cfg_.alpha * w >= mbr.max_x && ay + cfg_.beta * w >= mbr.max_y) {
    return l;
  }
  return std::max(1, l - 1);
}

TShapeEncoding TShapeIndex::Encode(
    const std::vector<geo::TimedPoint>& points) const {
  TShapeEncoding enc;
  const geo::MBR mbr = geo::ComputeMBR(points);
  const int r = Resolution(mbr);
  enc.anchor = CellContaining(mbr.min_x, mbr.min_y, r);
  enc.quad_code = QuadCode(enc.anchor, cfg_.max_resolution);

  enc.shape = 0;
  const double w = enc.anchor.size();
  for (int dy = 0; dy < cfg_.beta; dy++) {
    for (int dx = 0; dx < cfg_.alpha; dx++) {
      const geo::MBR cell{(enc.anchor.x + dx) * w, (enc.anchor.y + dy) * w,
                          (enc.anchor.x + dx + 1) * w,
                          (enc.anchor.y + dy + 1) * w};
      if (!mbr.Intersects(cell)) continue;
      if (geo::PolylineIntersectsRect(points, cell)) {
        enc.shape |= 1u << (dy * cfg_.alpha + dx);
      }
    }
  }
  if (enc.shape == 0 && !points.empty()) {
    // Numerical edge: the polyline grazes cell borders. Fall back to the
    // cell containing the first point so the shape is never empty.
    enc.shape = 1;
  }
  enc.index_value = IndexValue(enc.quad_code, enc.shape);
  return enc;
}

geo::MBR TShapeIndex::EnlargedRect(const QuadCell& anchor) const {
  const double w = anchor.size();
  return geo::MBR{anchor.x * w, anchor.y * w, (anchor.x + cfg_.alpha) * w,
                  (anchor.y + cfg_.beta) * w};
}

namespace {

bool TShapeIntersectsImpl(const TShapeConfig& cfg, const QuadCell& anchor,
                          uint32_t shape, const geo::MBR& query) {
  const double w = anchor.size();
  for (int dy = 0; dy < cfg.beta; dy++) {
    for (int dx = 0; dx < cfg.alpha; dx++) {
      if ((shape & (1u << (dy * cfg.alpha + dx))) == 0) continue;
      const geo::MBR cell{(anchor.x + dx) * w, (anchor.y + dy) * w,
                          (anchor.x + dx + 1) * w, (anchor.y + dy + 1) * w};
      if (query.Intersects(cell)) return true;
    }
  }
  return false;
}

}  // namespace

bool TShapeIndex::ShapeIntersects(const QuadCell& anchor, uint32_t shape,
                                  const geo::MBR& query) const {
  return TShapeIntersectsImpl(cfg_, anchor, shape, query);
}

std::vector<ValueRange> TShapeIndex::QueryRanges(
    const geo::MBR& query, const ShapeCatalogView* catalog,
    QueryStats* stats) const {
  std::vector<ValueRange> ranges;
  std::deque<QuadCell> queue;
  for (int q = 0; q < 4; q++) {
    queue.push_back(QuadCell{1, static_cast<uint32_t>(q >> 1),
                             static_cast<uint32_t>(q & 1)});
  }

  while (!queue.empty()) {
    const QuadCell cell = queue.front();
    queue.pop_front();
    if (stats != nullptr) stats->elements_visited++;

    const geo::MBR enlarged = EnlargedRect(cell);
    if (!query.Intersects(enlarged)) continue;  // disjoint: prune

    const uint64_t code = QuadCode(cell, cfg_.max_resolution);
    const uint64_t end_code =
        code + QuadSubtreeCount(cell.r, cfg_.max_resolution);
    // Quad codes are preorder, so the cell's subtree is [code, end_code)
    // and one probe tells whether any element in it holds a shape.
    const uint64_t next_occupied =
        catalog != nullptr ? catalog->NextOccupied(code) : code;
    if (next_occupied >= end_code) continue;  // empty subtree: prune

    if (query.Contains(enlarged)) {
      // All shapes of all elements prefixed with this cell qualify.
      ranges.push_back(
          ValueRange{IndexValue(code, 0), IndexValue(end_code, 0) - 1});
      continue;
    }

    // intersects: consult the used shapes (index cache) if available.
    if (catalog != nullptr) {
      if (next_occupied == code) {
        // Held for the loop: a concurrent write may drop the catalog's own
        // reference to this list.
        const std::shared_ptr<const ShapeList> shapes = catalog->Shapes(code);
        bool in_run = false;  // the previous shape touched the query
        for (const auto& [bits, final_code] : *shapes) {
          if (stats != nullptr) stats->shapes_checked++;
          if (!TShapeIntersectsImpl(cfg_, cell, bits, query)) {
            in_run = false;
            continue;
          }
          const uint64_t v = IndexValue(code, final_code);
          if (in_run) {
            ranges.back().hi = v;  // spans the unused codes since the last
          } else {
            ranges.push_back(ValueRange{v, v});
          }
          in_run = true;
        }
      }
    } else {
      // No index cache: cannot enumerate used shapes, so every shape code
      // of this element is a candidate (the push-down spatial filter
      // discards the misses).
      ranges.push_back(
          ValueRange{IndexValue(code, 0), IndexValue(code + 1, 0) - 1});
    }

    if (cell.r < cfg_.max_resolution) {
      for (int q = 0; q < 4; q++) {
        queue.push_back(cell.Child(q));
      }
    }
  }
  return MergeRanges(std::move(ranges));
}

}  // namespace tman::index
