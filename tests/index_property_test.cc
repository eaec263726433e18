// Cross-index property tests: invariants the paper states or relies on,
// checked over randomized inputs (parameterized sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <set>

#include "common/random.h"
#include "index/quadkey.h"
#include "index/shape_encoding.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "index/xz2_index.h"
#include "index/xzt_index.h"
#include "map_catalog.h"

namespace tman::index {
namespace {

// ---------------------------------------------------------------------------
// TR vs XZT: the headline claim of §IV-A1 — the TR index covers a query
// with fewer candidate index values (less dead region).

TEST(TRvsXZTProperty, TRQueryIntervalsAreBounded) {
  // TR candidate values are at most N(N-1)/2 + Q*N (§V-B discussion), a
  // bound independent of the data volume.
  Random rnd(1);
  for (int trial = 0; trial < 100; trial++) {
    const int64_t period = 600 * (1 + static_cast<int64_t>(rnd.Uniform(8)));
    const int64_t N = 4 + static_cast<int64_t>(rnd.Uniform(44));
    TRIndex idx(TRConfig{0, period, N});
    const int64_t ts = static_cast<int64_t>(rnd.Uniform(1u << 30));
    const int64_t Q = 1 + static_cast<int64_t>(rnd.Uniform(10));
    const auto ranges = idx.QueryRanges(ts, ts + Q * period);
    const uint64_t bound =
        static_cast<uint64_t>(N * (N - 1) / 2 + (Q + 1) * N);
    EXPECT_LE(TotalCount(ranges), bound);
  }
}

TEST(TRvsXZTProperty, DeadRegionComparison) {
  // Dead region: the slack between a trajectory's represented span and its
  // actual time range. XZT's dichotomy can double the span; TR's bins add
  // at most two periods.
  TRIndex tr(TRConfig{0, 1800, 48});
  XZTIndex xzt(XZTConfig{0, 7 * 24 * 3600, 14});
  Random rnd(2);
  double tr_slack_total = 0;
  double xzt_slack_total = 0;
  const int trials = 500;
  for (int trial = 0; trial < trials; trial++) {
    const int64_t ts = static_cast<int64_t>(rnd.Uniform(60LL * 86400));
    const int64_t duration = 600 + static_cast<int64_t>(rnd.Uniform(12 * 3600));
    const int64_t te = ts + duration;
    // TR bin span.
    int64_t bin_start, bin_end;
    tr.DecodeBin(tr.Encode(ts, te), &bin_start, &bin_end);
    tr_slack_total += static_cast<double>((bin_end - bin_start) - duration);
    // XZT XElement span: infer from the code by re-deriving the element.
    // The encode picks the deepest element whose XElement covers [ts,te];
    // its span is at least the duration. Measure it by binary descent.
    const int64_t period = 7 * 24 * 3600;
    int64_t elem_start = (ts / period) * period;
    int64_t elem_len = period;
    for (int depth = 0; depth < 14; depth++) {
      const int64_t half = elem_len / 2;
      if (half == 0) break;
      const int64_t child_start =
          (ts - elem_start) >= half ? elem_start + half : elem_start;
      if (te < child_start + 2 * half) {
        elem_start = child_start;
        elem_len = half;
      } else {
        break;
      }
    }
    xzt_slack_total += static_cast<double>(2 * elem_len - duration);
  }
  // On average the TR representation is much tighter.
  EXPECT_LT(tr_slack_total / trials, xzt_slack_total / trials / 2);
}

// ---------------------------------------------------------------------------
// TShape: encode/query consistency under random alpha/beta.

struct ABCase {
  int alpha;
  int beta;
};

class TShapeSweep : public ::testing::TestWithParam<ABCase> {};

TEST_P(TShapeSweep, EncodedShapeAlwaysWithinElement) {
  const auto [alpha, beta] = GetParam();
  TShapeIndex idx(TShapeConfig{alpha, beta, 14});
  Random rnd(alpha * 31 + beta);
  for (int trial = 0; trial < 200; trial++) {
    std::vector<geo::TimedPoint> points;
    double x = rnd.UniformDouble(0.05, 0.9);
    double y = rnd.UniformDouble(0.05, 0.9);
    for (int i = 0; i < 30; i++) {
      x = std::clamp(x + rnd.UniformDouble(-0.003, 0.003), 0.0, 0.999);
      y = std::clamp(y + rnd.UniformDouble(-0.003, 0.003), 0.0, 0.999);
      points.push_back(geo::TimedPoint{x, y, i * 30});
    }
    const TShapeEncoding enc = idx.Encode(points);
    // Shape is non-empty and uses only bits inside alpha*beta.
    EXPECT_NE(enc.shape, 0u);
    EXPECT_EQ(enc.shape >> (alpha * beta), 0u);
    // The enlarged element covers the whole trajectory.
    const geo::MBR enlarged = idx.EnlargedRect(enc.anchor);
    const geo::MBR mbr = geo::ComputeMBR(points);
    EXPECT_LE(enlarged.min_x, mbr.min_x + 1e-12);
    EXPECT_GE(enlarged.max_x, mbr.max_x - 1e-12);
    EXPECT_LE(enlarged.min_y, mbr.min_y + 1e-12);
    EXPECT_GE(enlarged.max_y, mbr.max_y - 1e-12);
    // Every set bit's cell intersects the trajectory MBR.
    const double w = enc.anchor.size();
    for (int dy = 0; dy < beta; dy++) {
      for (int dx = 0; dx < alpha; dx++) {
        if ((enc.shape & (1u << (dy * alpha + dx))) == 0) continue;
        const geo::MBR cell{(enc.anchor.x + dx) * w, (enc.anchor.y + dy) * w,
                            (enc.anchor.x + dx + 1) * w,
                            (enc.anchor.y + dy + 1) * w};
        EXPECT_TRUE(mbr.Intersects(cell));
      }
    }
    // Index value round-trips its parts.
    EXPECT_EQ(idx.QuadCodeOf(enc.index_value), enc.quad_code);
    EXPECT_EQ(idx.ShapeCodeOf(enc.index_value), enc.shape);
  }
}

TEST_P(TShapeSweep, QueryRangesAreSortedAndDisjoint) {
  const auto [alpha, beta] = GetParam();
  TShapeIndex idx(TShapeConfig{alpha, beta, 12});
  Random rnd(alpha * 7 + beta);
  for (int trial = 0; trial < 50; trial++) {
    const double qx = rnd.UniformDouble(0, 0.9);
    const double qy = rnd.UniformDouble(0, 0.9);
    const geo::MBR query{qx, qy, qx + rnd.UniformDouble(0.005, 0.1),
                         qy + rnd.UniformDouble(0.005, 0.1)};
    const auto ranges = idx.QueryRanges(query, nullptr);
    for (size_t i = 0; i < ranges.size(); i++) {
      EXPECT_LE(ranges[i].lo, ranges[i].hi);
      if (i > 0) {
        EXPECT_GT(ranges[i].lo, ranges[i - 1].hi + 1)
            << "ranges must be merged and disjoint";
      }
    }
  }
}

// True if [lo, hi] lies inside one of the sorted, disjoint `ranges`.
bool Covers(const std::vector<ValueRange>& ranges, uint64_t lo, uint64_t hi) {
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), lo,
      [](uint64_t v, const ValueRange& r) { return v < r.lo; });
  return it != ranges.begin() && std::prev(it)->hi >= hi;
}

// `catalog` with subtree pruning defeated: every subtree reports as
// occupied and unoccupied elements hold no shapes, which is the walk
// without the occupancy index.
class UnprunedCatalog final : public ShapeCatalogView {
 public:
  explicit UnprunedCatalog(const ShapeCatalogView* catalog)
      : catalog_(catalog) {}

  uint64_t NextOccupied(uint64_t quad_code) const override {
    return quad_code;
  }

  std::shared_ptr<const ShapeList> Shapes(uint64_t quad_code) const override {
    if (catalog_->NextOccupied(quad_code) == quad_code) {
      return catalog_->Shapes(quad_code);
    }
    return std::make_shared<const ShapeList>();
  }

 private:
  const ShapeCatalogView* catalog_;
};

TEST_P(TShapeSweep, CatalogPruningKeepsEveryOccupiedShape) {
  const auto [alpha, beta] = GetParam();
  const int g = 12;
  TShapeIndex idx(TShapeConfig{alpha, beta, g});
  Random rnd(alpha * 13 + beta);
  for (int trial = 0; trial < 20; trial++) {
    // A random occupied (element, shape) set, at every resolution, inside
    // one quarter of the space so queries meet occupied and empty subtrees.
    struct Occupied {
      QuadCell anchor;
      uint32_t bits;
      uint64_t value;
    };
    std::vector<Occupied> occupied;
    std::map<uint64_t, ShapeList> elements;
    const int n = 1 + static_cast<int>(rnd.Uniform(80));
    for (int i = 0; i < n; i++) {
      const int r = 1 + static_cast<int>(rnd.Uniform(g));
      const QuadCell anchor = CellContaining(rnd.UniformDouble(0.2, 0.7),
                                             rnd.UniformDouble(0.2, 0.7), r);
      const uint64_t code = QuadCode(anchor, g);
      const uint32_t bits =
          1 + static_cast<uint32_t>(rnd.Uniform((1u << (alpha * beta)) - 1));
      ShapeList& shapes = elements[code];
      if (std::any_of(shapes.begin(), shapes.end(),
                      [bits](const auto& s) { return s.first == bits; })) {
        continue;
      }
      const uint32_t final_code = static_cast<uint32_t>(shapes.size());
      shapes.emplace_back(bits, final_code);
      occupied.push_back({anchor, bits, idx.IndexValue(code, final_code)});
    }
    const MapCatalog catalog(elements);
    const UnprunedCatalog unpruned_catalog(&catalog);

    for (int q = 0; q < 10; q++) {
      const double qx = rnd.UniformDouble(0, 0.9);
      const double qy = rnd.UniformDouble(0, 0.9);
      const geo::MBR query{qx, qy, qx + rnd.UniformDouble(0.005, 0.3),
                           qy + rnd.UniformDouble(0.005, 0.3)};
      TShapeIndex::QueryStats pruned_stats, unpruned_stats;
      const auto pruned = idx.QueryRanges(query, &catalog, &pruned_stats);
      const auto unpruned =
          idx.QueryRanges(query, &unpruned_catalog, &unpruned_stats);
      EXPECT_LE(pruned_stats.elements_visited,
                unpruned_stats.elements_visited);

      for (const Occupied& o : occupied) {
        if (!idx.ShapeIntersects(o.anchor, o.bits, query)) continue;
        EXPECT_TRUE(Covers(pruned, o.value, o.value))
            << "missed an occupied shape, trial " << trial;
      }
      for (size_t i = 0; i < pruned.size(); i++) {
        if (i > 0) {
          EXPECT_GT(pruned[i].lo, pruned[i - 1].hi + 1);
        }
        // Pruning only drops what the unpruned walk emits ...
        EXPECT_TRUE(Covers(unpruned, pruned[i].lo, pruned[i].hi));
        // ... and keeps nothing that lies wholly in unoccupied elements.
        auto it = elements.lower_bound(idx.QuadCodeOf(pruned[i].lo));
        EXPECT_TRUE(it != elements.end() &&
                    it->first <= idx.QuadCodeOf(pruned[i].hi))
            << "range over unoccupied elements, trial " << trial;
      }
    }
  }
}

// Algorithm 2 with one range per touching shape, recursively: whole
// subtrees of contained cells, the touching shapes of intersected occupied
// elements, nothing below an empty subtree. Ranges are not merged.
void PerShapeRanges(const TShapeIndex& idx, const ShapeCatalogView& catalog,
                    const QuadCell& cell, const geo::MBR& query,
                    std::vector<ValueRange>* out) {
  const int g = idx.config().max_resolution;
  const geo::MBR enlarged = idx.EnlargedRect(cell);
  if (!query.Intersects(enlarged)) return;
  const uint64_t code = QuadCode(cell, g);
  const uint64_t end = code + QuadSubtreeCount(cell.r, g);
  if (catalog.NextOccupied(code) >= end) return;
  if (query.Contains(enlarged)) {
    out->push_back(ValueRange{idx.IndexValue(code, 0),
                              idx.IndexValue(end, 0) - 1});
    return;
  }
  if (catalog.NextOccupied(code) == code) {
    for (const auto& [bits, final_code] : *catalog.Shapes(code)) {
      if (!idx.ShapeIntersects(cell, bits, query)) continue;
      const uint64_t v = idx.IndexValue(code, final_code);
      out->push_back(ValueRange{v, v});
    }
  }
  if (cell.r == g) return;
  for (int q = 0; q < 4; q++) {
    PerShapeRanges(idx, catalog, cell.Child(q), query, out);
  }
}

// With dense codes 0..n-1 the planner's runs of touching shapes are
// exactly the per-shape ranges merged. The same orders spread over gaps
// (as BulkLoad assigns codes) give the same number of ranges, covering the
// same shapes: spanning unused codes costs no window.
TEST_P(TShapeSweep, GappedCodesKeepTheDenseRanges) {
  const auto [alpha, beta] = GetParam();
  TShapeIndex idx(TShapeConfig{alpha, beta, 12});
  const uint64_t code_space = uint64_t{1} << idx.config().shape_bits();
  Random rnd(alpha * 17 + beta);
  for (int trial = 0; trial < 20; trial++) {
    // A few elements, each with up to 30 distinct shapes in random order.
    std::map<uint64_t, std::pair<QuadCell, std::vector<uint32_t>>> orders;
    const int elements = 1 + static_cast<int>(rnd.Uniform(8));
    for (int e = 0; e < elements; e++) {
      const QuadCell anchor = CellContaining(
          rnd.UniformDouble(0.2, 0.7), rnd.UniformDouble(0.2, 0.7),
          1 + static_cast<int>(rnd.Uniform(12)));
      auto& [cell, bitmaps] = orders[QuadCode(anchor, 12)];
      cell = anchor;
      const size_t n = 1 + rnd.Uniform(std::min<uint64_t>(30, code_space - 1));
      while (bitmaps.size() < n) {
        const uint32_t bits =
            1 + static_cast<uint32_t>(rnd.Uniform(code_space - 1));
        if (std::find(bitmaps.begin(), bitmaps.end(), bits) == bitmaps.end()) {
          bitmaps.push_back(bits);
        }
      }
    }
    std::map<uint64_t, ShapeList> dense_elements, gapped_elements;
    for (const auto& [code, element] : orders) {
      const std::vector<uint32_t>& bitmaps = element.second;
      const std::vector<uint32_t> spread =
          SpreadCodes(bitmaps.size(), code_space);
      for (uint32_t p = 0; p < bitmaps.size(); p++) {
        dense_elements[code].emplace_back(bitmaps[p], p);
        gapped_elements[code].emplace_back(bitmaps[p], spread[p]);
      }
    }
    const MapCatalog dense(dense_elements);
    const MapCatalog gapped(gapped_elements);

    for (int q = 0; q < 10; q++) {
      const double qx = rnd.UniformDouble(0.15, 0.7);
      const double qy = rnd.UniformDouble(0.15, 0.7);
      const geo::MBR query{qx, qy, qx + rnd.UniformDouble(0.005, 0.3),
                           qy + rnd.UniformDouble(0.005, 0.3)};
      std::vector<ValueRange> per_shape;
      for (int c = 0; c < 4; c++) {
        PerShapeRanges(idx, dense,
                       QuadCell{1, static_cast<uint32_t>(c >> 1),
                                static_cast<uint32_t>(c & 1)},
                       query, &per_shape);
      }
      const auto dense_ranges = idx.QueryRanges(query, &dense);
      EXPECT_EQ(dense_ranges, MergeRanges(per_shape))
          << "trial " << trial << " query " << q;

      const auto gapped_ranges = idx.QueryRanges(query, &gapped);
      EXPECT_EQ(gapped_ranges.size(), dense_ranges.size())
          << "trial " << trial << " query " << q;
      for (const auto& [code, shapes] : dense_elements) {
        const ShapeList& spread = gapped_elements.at(code);
        for (size_t p = 0; p < shapes.size(); p++) {
          EXPECT_EQ(
              Covers(dense_ranges, idx.IndexValue(code, shapes[p].second),
                     idx.IndexValue(code, shapes[p].second)),
              Covers(gapped_ranges, idx.IndexValue(code, spread[p].second),
                     idx.IndexValue(code, spread[p].second)))
              << "trial " << trial << " query " << q << " shape " << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TShapeSweep,
                         ::testing::Values(ABCase{2, 2}, ABCase{2, 3},
                                           ABCase{3, 3}, ABCase{3, 4},
                                           ABCase{4, 4}, ABCase{5, 5}),
                         [](const ::testing::TestParamInfo<ABCase>& info) {
                           return std::to_string(info.param.alpha) + "x" +
                                  std::to_string(info.param.beta);
                         });

// ---------------------------------------------------------------------------
// Finer shapes never increase the candidate shape count for off-path
// queries (monotonicity of the paper's Fig. 15 claim).

TEST(TShapeProperty, ShapePopcountBoundedByCells) {
  TShapeIndex idx(TShapeConfig{5, 5, 14});
  Random rnd(9);
  for (int trial = 0; trial < 100; trial++) {
    // A short straight segment at a random angle.
    const double x = rnd.UniformDouble(0.1, 0.8);
    const double y = rnd.UniformDouble(0.1, 0.8);
    const double angle = rnd.UniformDouble(0, 6.28);
    std::vector<geo::TimedPoint> points;
    for (int i = 0; i < 20; i++) {
      points.push_back(geo::TimedPoint{x + std::cos(angle) * i * 0.002,
                                       y + std::sin(angle) * i * 0.002,
                                       i * 30});
    }
    const TShapeEncoding enc = idx.Encode(points);
    // A line through a 5x5 grid can cross at most 2*5-1 = 9 cells; the
    // bitset representation preserves that sparsity (an MBR could not).
    EXPECT_LE(std::popcount(enc.shape), 9);
  }
}

// ---------------------------------------------------------------------------
// XZ2 vs TShape: TShape is at least as selective as XZ2 on identical data
// (the shape bitset refines the enlarged element).

TEST(XZ2vsTShapeProperty, TShapeRefinesXZ2Selectivity) {
  XZ2Index xz2(XZ2Config{14});
  TShapeIndex tshape(TShapeConfig{3, 3, 14});
  Random rnd(12);
  int xz2_hits = 0;
  int tshape_hits = 0;
  for (int trial = 0; trial < 500; trial++) {
    // Diagonal trajectory; query window off the diagonal inside the MBR.
    const double x = rnd.UniformDouble(0.1, 0.8);
    const double y = rnd.UniformDouble(0.1, 0.8);
    std::vector<geo::TimedPoint> points;
    for (int i = 0; i < 25; i++) {
      points.push_back(
          geo::TimedPoint{x + i * 0.002, y + i * 0.002, i * 30});
    }
    const geo::MBR query{x + 0.001, y + 0.030, x + 0.010, y + 0.045};

    const geo::MBR mbr = geo::ComputeMBR(points);
    // XZ2 candidate test: enlarged element of the anchor intersects query.
    const QuadCell xz_anchor = xz2.AnchorCell(mbr);
    const double w = xz_anchor.size();
    const geo::MBR xz_enlarged{xz_anchor.x * w, xz_anchor.y * w,
                               (xz_anchor.x + 2) * w, (xz_anchor.y + 2) * w};
    if (xz_enlarged.Intersects(query)) xz2_hits++;
    // TShape candidate test: the stored shape bitset intersects the query.
    const TShapeEncoding enc = tshape.Encode(points);
    if (tshape.ShapeIntersects(enc.anchor, enc.shape, query)) tshape_hits++;
  }
  EXPECT_LT(tshape_hits, xz2_hits)
      << "shape bitsets must prune off-path queries that MBRs cannot";
}

// ---------------------------------------------------------------------------
// Shape-order optimisation invariants.

TEST(ShapeOrderProperty, GreedyNeverWorseThanRawOnAverage) {
  Random rnd(13);
  double greedy_total = 0;
  double raw_total = 0;
  for (int trial = 0; trial < 30; trial++) {
    std::set<uint32_t> unique;
    while (unique.size() < 20) {
      unique.insert(static_cast<uint32_t>(rnd.Uniform(1u << 25)) | 1);
    }
    std::vector<uint32_t> shapes(unique.begin(), unique.end());
    const auto greedy = OptimizeShapeOrder(shapes, ShapeOrderMethod::kGreedy);
    const auto raw = OptimizeShapeOrder(shapes, ShapeOrderMethod::kBitmap);
    greedy_total += CumulativeSimilarity(shapes, greedy);
    raw_total += CumulativeSimilarity(shapes, raw);
  }
  EXPECT_GT(greedy_total, raw_total);
}

TEST(ShapeOrderProperty, SingleAndEmptyInputs) {
  EXPECT_TRUE(OptimizeShapeOrder({}, ShapeOrderMethod::kGenetic).empty());
  const auto one = OptimizeShapeOrder({7u}, ShapeOrderMethod::kGreedy);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(ShapeOrderProperty, JaccardBasics) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity(0b1010, 0b1010), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(0b1010, 0b0101), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(0, 0), 1.0);  // defined as identical
  EXPECT_DOUBLE_EQ(JaccardSimilarity(0b11, 0b01), 0.5);
  // Symmetry.
  Random rnd(14);
  for (int i = 0; i < 100; i++) {
    const uint32_t a = static_cast<uint32_t>(rnd.Next());
    const uint32_t b = static_cast<uint32_t>(rnd.Next());
    EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), JaccardSimilarity(b, a));
  }
}

// ---------------------------------------------------------------------------
// XZT code-space uniqueness within and across periods.

TEST(XZTProperty, CodesUniqueAcrossPeriods) {
  XZTIndex idx(XZTConfig{0, 10000, 6});
  Random rnd(15);
  std::map<uint64_t, std::pair<int64_t, int64_t>> seen;
  for (int trial = 0; trial < 2000; trial++) {
    const int64_t ts = static_cast<int64_t>(rnd.Uniform(200000));
    const int64_t te = ts + 1 + static_cast<int64_t>(rnd.Uniform(15000));
    const uint64_t code = idx.Encode(ts, te);
    auto it = seen.find(code);
    if (it != seen.end()) {
      // Same code implies same period and a shared covering element; both
      // ranges must fit inside one XElement of that period, i.e. they are
      // near each other.
      EXPECT_LT(std::abs(it->second.first - ts), 2 * 10000);
    }
    seen[code] = {ts, te};
  }
}

}  // namespace
}  // namespace tman::index
