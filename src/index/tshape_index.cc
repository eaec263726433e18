#include "index/tshape_index.h"

#include <algorithm>
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

// The shape bits of the cells of `anchor`'s enlarged element that meet
// `rect` (closed, so touching counts). A cell meets it exactly when its
// column meets it in x and its row in y.
uint32_t CellsMeeting(const TShapeConfig& cfg, const QuadCell& anchor,
                      const geo::MBR& rect) {
  const double w = anchor.size();
  uint32_t columns = 0;
  for (int dx = 0; dx < cfg.alpha; dx++) {
    if (!((anchor.x + dx) * w > rect.max_x ||
          (anchor.x + dx + 1) * w < rect.min_x)) {
      columns |= 1u << dx;
    }
  }
  uint32_t cells = 0;
  for (int dy = 0; dy < cfg.beta; dy++) {
    if (!((anchor.y + dy) * w > rect.max_y ||
          (anchor.y + dy + 1) * w < rect.min_y)) {
      cells |= columns << (dy * cfg.alpha);
    }
  }
  return cells;
}

// Appends one range per run of consecutive shapes of element `code` (in
// code order) that all pass `keep`, spanning the unused codes between them.
template <typename Keep>
void AppendShapeRuns(const TShapeIndex& index, uint64_t code,
                     const ShapeList& shapes, Keep keep,
                     TShapeIndex::QueryStats* stats,
                     std::vector<ValueRange>* ranges) {
  bool in_run = false;  // the previous shape was kept
  for (const auto& [bits, final_code] : shapes) {
    if (stats != nullptr) stats->shapes_checked++;
    if (!keep(bits)) {
      in_run = false;
      continue;
    }
    const uint64_t v = index.IndexValue(code, final_code);
    if (in_run) {
      ranges->back().hi = v;  // spans the unused codes since the last
    } else {
      ranges->push_back(ValueRange{v, v});
    }
    in_run = true;
  }
}

std::deque<QuadCell> RootCells() {
  std::deque<QuadCell> queue;
  for (int q = 0; q < 4; q++) {
    queue.push_back(QuadCell{1, static_cast<uint32_t>(q >> 1),
                             static_cast<uint32_t>(q & 1)});
  }
  return queue;
}

}  // namespace

bool TShapeIndex::ShapeIntersects(const QuadCell& anchor, uint32_t shape,
                                  const geo::MBR& query) const {
  return (shape & CellsMeeting(cfg_, anchor, query)) != 0;
}

std::vector<ValueRange> TShapeIndex::QueryRanges(
    const geo::MBR& query, const ShapeCatalogView* catalog,
    QueryStats* stats) const {
  std::vector<ValueRange> ranges;
  std::deque<QuadCell> queue = RootCells();

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
        const uint32_t touching = CellsMeeting(cfg_, cell, query);
        AppendShapeRuns(
            *this, code, *shapes,
            [touching](uint32_t bits) { return (bits & touching) != 0; },
            stats, &ranges);
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

std::vector<ValueRange> TShapeIndex::CoverageRanges(
    const geo::MBR& probe, double eps_x, double eps_y,
    const ShapeCatalogView* catalog, QueryStats* stats) const {
  // The tests below run on rounded coordinates; a radius wider by far more
  // than their rounding keeps every error on the including side.
  const double slack =
      1e-12 * (1 + std::max({std::abs(probe.min_x), std::abs(probe.max_x),
                             std::abs(probe.min_y), std::abs(probe.max_y),
                             eps_x, eps_y}));
  eps_x += slack;
  eps_y += slack;
  // The probe clamped into the unit square, as Encode clamps anchors: every
  // row's MBR, clamped the same way, lies inside its element's enlarged
  // rectangle, and a match's clamped MBR lies within eps of the clamped
  // probe on every side.
  const geo::MBR clamped{std::clamp(probe.min_x, 0.0, 1.0),
                         std::clamp(probe.min_y, 0.0, 1.0),
                         std::clamp(probe.max_x, 0.0, 1.0),
                         std::clamp(probe.max_y, 0.0, 1.0)};
  const geo::MBR around{clamped.min_x - eps_x, clamped.min_y - eps_y,
                        clamped.max_x + eps_x, clamped.max_y + eps_y};
  // B, the probe grown by eps, holds a match's whole polyline. Stretched to
  // reach the unit square, it also holds the clamped lower-left corner that
  // Encode's fallback shape (the anchor cell) stands for.
  const geo::MBR reach{std::min(probe.min_x - eps_x, 1.0),
                       std::min(probe.min_y - eps_y, 1.0),
                       std::max(probe.max_x + eps_x, 0.0),
                       std::max(probe.max_y + eps_y, 0.0)};
  // Whether the finest elements could still cover the probe: then every
  // element below a cell whose enlarged rectangle lies inside `around` is
  // near enough by size, and the walk emits the subtree rather than
  // descending to the finest resolution.
  const double finest = 1.0 / static_cast<double>(1u << cfg_.max_resolution);
  const bool finest_cover =
      clamped.width() <= cfg_.alpha * finest + 2 * eps_x &&
      clamped.height() <= cfg_.beta * finest + 2 * eps_y;

  std::vector<ValueRange> ranges;
  std::deque<QuadCell> queue = RootCells();
  while (!queue.empty()) {
    const QuadCell cell = queue.front();
    queue.pop_front();
    if (stats != nullptr) stats->elements_visited++;

    // Subtree rule: every element below has its enlarged rectangle inside
    // this one's, so none can hold a match unless the clamped probe lies
    // inside this rectangle grown by eps.
    const geo::MBR enlarged = EnlargedRect(cell);
    if (!(enlarged.min_x - eps_x <= clamped.min_x &&
          enlarged.min_y - eps_y <= clamped.min_y &&
          enlarged.max_x + eps_x >= clamped.max_x &&
          enlarged.max_y + eps_y >= clamped.max_y)) {
      continue;
    }

    const uint64_t code = QuadCode(cell, cfg_.max_resolution);
    const uint64_t end_code =
        code + QuadSubtreeCount(cell.r, cfg_.max_resolution);
    const uint64_t next_occupied =
        catalog != nullptr ? catalog->NextOccupied(code) : code;
    if (next_occupied >= end_code) continue;  // empty subtree: prune

    if (finest_cover && around.Contains(enlarged)) {
      ranges.push_back(
          ValueRange{IndexValue(code, 0), IndexValue(end_code, 0) - 1});
      continue;
    }

    if (catalog == nullptr) {
      ranges.push_back(
          ValueRange{IndexValue(code, 0), IndexValue(code + 1, 0) - 1});
    } else if (next_occupied == code) {
      // Shape rule: a match's polyline visits every cell its shape sets,
      // and lies inside `reach`.
      const std::shared_ptr<const ShapeList> shapes = catalog->Shapes(code);
      const uint32_t meeting = CellsMeeting(cfg_, cell, reach);
      AppendShapeRuns(
          *this, code, *shapes,
          [meeting](uint32_t bits) { return (bits & ~meeting) == 0; }, stats,
          &ranges);
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
