#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "index/quadkey.h"
#include "index/shape_encoding.h"
#include "index/tshape_index.h"
#include "index/value_range.h"
#include "index/xz2_index.h"
#include "index/xzstar_index.h"
#include "index/xzt_index.h"
#include "map_catalog.h"

namespace tman::index {
namespace {

// ---------------------------------------------------------------------------
// Quadrant codes (Eq. 2)

TEST(QuadKeyTest, PaperExampleCode03) {
  // Figure 8(a): with g=2, the cell with sequence "03" has code 4.
  // Sequence "03": first quadrant 0 (SW), then quadrant 3 (NE).
  QuadCell cell{2, 1, 1};  // SW half then NE quarter -> x=01b=1, y=01b=1
  EXPECT_EQ(cell.Sequence(), "03");
  EXPECT_EQ(QuadCode(cell, 2), 4u);
}

TEST(QuadKeyTest, CodesAreUniqueAndOrderPreserving) {
  const int g = 4;
  std::map<uint64_t, std::string> codes;
  // Enumerate all cells of all resolutions.
  for (int r = 1; r <= g; r++) {
    for (uint32_t x = 0; x < (1u << r); x++) {
      for (uint32_t y = 0; y < (1u << r); y++) {
        QuadCell cell{r, x, y};
        const uint64_t code = QuadCode(cell, g);
        auto [it, inserted] = codes.emplace(code, cell.Sequence());
        ASSERT_TRUE(inserted) << "duplicate code " << code;
      }
    }
  }
  // Depth-first order = lexicographic order of sequences (with the parent
  // before its children).
  std::string prev;
  for (const auto& [code, seq] : codes) {
    if (!prev.empty()) {
      EXPECT_LT(prev, seq) << "order violated at code " << code;
    }
    prev = seq;
  }
  // Total count: 4 + 16 + 64 + 256.
  EXPECT_EQ(codes.size(), 4u + 16 + 64 + 256);
}

TEST(QuadKeyTest, SubtreeCodesAreContiguous) {
  const int g = 5;
  Random rnd(7);
  for (int trial = 0; trial < 50; trial++) {
    const int r = 1 + static_cast<int>(rnd.Uniform(g));
    QuadCell cell{r, static_cast<uint32_t>(rnd.Uniform(1u << r)),
                  static_cast<uint32_t>(rnd.Uniform(1u << r))};
    const uint64_t base = QuadCode(cell, g);
    const uint64_t count = QuadSubtreeCount(r, g);
    // Every descendant's code lies in [base, base+count).
    if (r < g) {
      for (int q = 0; q < 4; q++) {
        const QuadCell child = cell.Child(q);
        const uint64_t child_code = QuadCode(child, g);
        EXPECT_GE(child_code, base);
        EXPECT_LT(child_code, base + count);
      }
    }
  }
}

TEST(QuadKeyTest, CellContainingRoundTrips) {
  const QuadCell cell = CellContaining(0.3, 0.7, 3);
  const geo::MBR rect = cell.Rect();
  EXPECT_TRUE(rect.Contains(geo::Point{0.3, 0.7}));
  EXPECT_DOUBLE_EQ(cell.size(), 0.125);
}

// ---------------------------------------------------------------------------
// XZ2

TEST(XZ2Test, EncodeSelectsCoveringEnlargedElement) {
  XZ2Index idx(XZ2Config{8});
  const geo::MBR small{0.30, 0.30, 0.32, 0.31};
  const QuadCell anchor = idx.AnchorCell(small);
  const double w = anchor.size();
  // The 2x enlargement must cover the MBR.
  EXPECT_LE(anchor.x * w, small.min_x);
  EXPECT_GE((anchor.x + 2) * w, small.max_x);
  EXPECT_LE(anchor.y * w, small.min_y);
  EXPECT_GE((anchor.y + 2) * w, small.max_y);
}

class XZ2Completeness : public ::testing::TestWithParam<int> {};

TEST_P(XZ2Completeness, NoFalseNegatives) {
  Random rnd(GetParam());
  XZ2Index idx(XZ2Config{10});
  for (int trial = 0; trial < 200; trial++) {
    // Random query rectangle.
    const double qx = rnd.UniformDouble(0, 0.9);
    const double qy = rnd.UniformDouble(0, 0.9);
    const double qw = rnd.UniformDouble(0.001, 0.1);
    const double qh = rnd.UniformDouble(0.001, 0.1);
    const geo::MBR query{qx, qy, qx + qw, qy + qh};
    const auto ranges = idx.QueryRanges(query);

    // Random object MBR near the query.
    const double ox = std::clamp(qx + rnd.UniformDouble(-0.1, 0.1), 0.0, 0.95);
    const double oy = std::clamp(qy + rnd.UniformDouble(-0.1, 0.1), 0.0, 0.95);
    const double ow = rnd.UniformDouble(0.0005, 0.05);
    const double oh = rnd.UniformDouble(0.0005, 0.05);
    const geo::MBR object{ox, oy, std::min(1.0, ox + ow),
                          std::min(1.0, oy + oh)};
    if (!object.Intersects(query)) continue;

    const uint64_t code = idx.Encode(object);
    bool covered = false;
    for (const auto& r : ranges) {
      if (r.Contains(code)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "missed object at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XZ2Completeness,
                         ::testing::Values(3, 5, 7, 9));

// ---------------------------------------------------------------------------
// XZT (temporal baseline)

class XZTCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(XZTCompleteness, NoFalseNegatives) {
  Random rnd(GetParam());
  XZTConfig cfg;
  cfg.origin = 0;
  cfg.period_seconds = 7 * 24 * 3600;
  cfg.max_resolution = 12;
  XZTIndex idx(cfg);
  const int64_t horizon = 60LL * 24 * 3600;

  for (int trial = 0; trial < 200; trial++) {
    const int64_t q_ts = static_cast<int64_t>(rnd.Uniform(horizon));
    const int64_t q_te = q_ts + 60 + static_cast<int64_t>(rnd.Uniform(86400));
    const auto ranges = idx.QueryRanges(q_ts, q_te);

    const int64_t t_ts =
        std::max<int64_t>(0, q_ts - 86400 +
                                 static_cast<int64_t>(rnd.Uniform(2 * 86400)));
    const int64_t t_te =
        t_ts + 1 + static_cast<int64_t>(rnd.Uniform(48 * 3600));
    if (!(t_ts <= q_te && t_te >= q_ts)) continue;

    const uint64_t code = idx.Encode(t_ts, t_te);
    bool covered = false;
    for (const auto& r : ranges) {
      if (r.Contains(code)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "missed range [" << t_ts << "," << t_te
                         << "] query [" << q_ts << "," << q_te << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XZTCompleteness, ::testing::Values(2, 4, 6));

// ---------------------------------------------------------------------------
// TShape

std::vector<geo::TimedPoint> MakeLine(double x0, double y0, double x1,
                                      double y1, int n = 20) {
  std::vector<geo::TimedPoint> points;
  for (int i = 0; i < n; i++) {
    const double f = static_cast<double>(i) / (n - 1);
    points.push_back(
        geo::TimedPoint{x0 + f * (x1 - x0), y0 + f * (y1 - y0), i * 30});
  }
  return points;
}

TEST(TShapeTest, ResolutionRespectsLemma3And4) {
  TShapeIndex idx(TShapeConfig{3, 3, 15});
  // An MBR of extent e fits alpha cells when cell size >= e/alpha.
  const geo::MBR mbr{0.1, 0.1, 0.1 + 0.03, 0.1 + 0.02};
  const int r = idx.Resolution(mbr);
  const double w = 1.0 / static_cast<double>(1 << r);
  // Lemma 4 condition must hold at the chosen resolution.
  const double ax = std::floor(mbr.min_x / w) * w;
  const double ay = std::floor(mbr.min_y / w) * w;
  EXPECT_GE(ax + 3 * w, mbr.max_x);
  EXPECT_GE(ay + 3 * w, mbr.max_y);
  // And fail at one resolution deeper (r is maximal) unless capped by g.
  if (r < 15) {
    const double w2 = w / 2;
    const double ax2 = std::floor(mbr.min_x / w2) * w2;
    const double ay2 = std::floor(mbr.min_y / w2) * w2;
    const bool fits_deeper =
        ax2 + 3 * w2 >= mbr.max_x && ay2 + 3 * w2 >= mbr.max_y &&
        std::max(mbr.width() / 3, mbr.height() / 3) <= w2;
    EXPECT_FALSE(fits_deeper) << "resolution not maximal";
  }
}

TEST(TShapeTest, ShapeBitsMarkVisitedCellsOnly) {
  TShapeIndex idx(TShapeConfig{3, 3, 12});
  // A horizontal line crosses a row of cells: the shape must be a subset
  // of one row (plus possibly adjacent bits when grazing edges), never the
  // full 3x3 block.
  const auto points = MakeLine(0.40, 0.455, 0.47, 0.455);
  const TShapeEncoding enc = idx.Encode(points);
  EXPECT_NE(enc.shape, 0u);
  EXPECT_NE(enc.shape, (1u << 9) - 1) << "line cannot visit all 9 cells";
  EXPECT_EQ(enc.index_value, (enc.quad_code << 9) | enc.shape);
}

TEST(TShapeTest, DiagonalVisitsMoreCellsThanMBRWouldSuggest) {
  TShapeIndex idx(TShapeConfig{3, 3, 12});
  const auto diag = MakeLine(0.40, 0.40, 0.47, 0.47);
  const auto horiz = MakeLine(0.40, 0.40, 0.47, 0.401);
  const TShapeEncoding diag_enc = idx.Encode(diag);
  const TShapeEncoding horiz_enc = idx.Encode(horiz);
  // Both shapes are proper subsets of the full block; the diagonal's
  // fine-grained shape is what XZ-style MBR indexes cannot express.
  EXPECT_LT(std::popcount(diag_enc.shape), 9);
  EXPECT_LT(std::popcount(horiz_enc.shape), 9);
}

class TShapeCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(TShapeCompleteness, NoFalseNegativesWithCache) {
  Random rnd(GetParam());
  TShapeIndex idx(TShapeConfig{3, 3, 12});

  // Build a small "index cache" of used shapes.
  std::map<uint64_t, ShapeList> cache;
  struct Stored {
    uint64_t value;
    std::vector<geo::TimedPoint> points;
  };
  std::vector<Stored> stored;
  for (int i = 0; i < 300; i++) {
    const double x = rnd.UniformDouble(0.05, 0.9);
    const double y = rnd.UniformDouble(0.05, 0.9);
    const auto points =
        MakeLine(x, y, x + rnd.UniformDouble(-0.04, 0.04),
                 y + rnd.UniformDouble(-0.04, 0.04));
    const TShapeEncoding enc = idx.Encode(points);
    auto& shapes = cache[enc.quad_code];
    uint32_t final_code = UINT32_MAX;
    for (const auto& [bits, code] : shapes) {
      if (bits == enc.shape) final_code = code;
    }
    if (final_code == UINT32_MAX) {
      final_code = static_cast<uint32_t>(shapes.size());
      shapes.emplace_back(enc.shape, final_code);
    }
    stored.push_back(Stored{idx.IndexValue(enc.quad_code, final_code), points});
  }

  const MapCatalog catalog(cache);

  for (int trial = 0; trial < 100; trial++) {
    const double qx = rnd.UniformDouble(0, 0.9);
    const double qy = rnd.UniformDouble(0, 0.9);
    const geo::MBR query{qx, qy, qx + rnd.UniformDouble(0.01, 0.08),
                         qy + rnd.UniformDouble(0.01, 0.08)};
    const auto ranges = idx.QueryRanges(query, &catalog);
    for (const Stored& s : stored) {
      if (!geo::PolylineIntersectsRect(s.points, query)) continue;
      bool covered = false;
      for (const auto& r : ranges) {
        if (r.Contains(s.value)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "missed stored trajectory, trial " << trial;
      if (!covered) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TShapeCompleteness,
                         ::testing::Values(21, 42, 63, 84));

TEST(TShapeTest, FinerAlphaBetaVisitsFewerFalseCandidates) {
  // A 5x5 decomposition represents shapes more precisely than 2x2, so a
  // query off the trajectory's path should intersect fewer stored shapes.
  Random rnd(5);
  TShapeIndex coarse(TShapeConfig{2, 2, 12});
  TShapeIndex fine(TShapeConfig{5, 5, 12});

  int coarse_hits = 0;
  int fine_hits = 0;
  for (int i = 0; i < 200; i++) {
    const double x = rnd.UniformDouble(0.1, 0.8);
    const double y = rnd.UniformDouble(0.1, 0.8);
    // Diagonal trajectories: their MBR has big empty corners.
    const auto points = MakeLine(x, y, x + 0.05, y + 0.05);
    // Query sits in the empty corner of the MBR.
    const geo::MBR query{x + 0.002, y + 0.038, x + 0.012, y + 0.048};

    const TShapeEncoding ce = coarse.Encode(points);
    const TShapeEncoding fe = fine.Encode(points);
    if (coarse.ShapeIntersects(ce.anchor, ce.shape, query)) coarse_hits++;
    if (fine.ShapeIntersects(fe.anchor, fe.shape, query)) fine_hits++;
  }
  EXPECT_LT(fine_hits, coarse_hits);
}

// ---------------------------------------------------------------------------
// XZ*

TEST(XZStarTest, EncodingIsTShape2x2Raw) {
  XZStarIndex xzstar(12);
  const auto points = MakeLine(0.3, 0.3, 0.34, 0.33);
  const TShapeEncoding enc = xzstar.EncodeFull(points);
  EXPECT_GT(enc.shape, 0u);
  EXPECT_LT(enc.shape, 16u);
  EXPECT_EQ(xzstar.Encode(points), (enc.quad_code << 4) | enc.shape);
}

TEST(XZStarTest, QueryFindsStoredTrajectory) {
  XZStarIndex xzstar(12);
  const auto points = MakeLine(0.41, 0.42, 0.45, 0.44);
  const uint64_t value = xzstar.Encode(points);
  const geo::MBR query{0.42, 0.42, 0.43, 0.43};
  if (geo::PolylineIntersectsRect(points, query)) {
    bool covered = false;
    for (const auto& r : xzstar.QueryRanges(query)) {
      if (r.Contains(value)) covered = true;
    }
    EXPECT_TRUE(covered);
  }
}

// ---------------------------------------------------------------------------
// Shape-code optimisation

uint32_t BitsFromString(const std::string& s) {
  uint32_t bits = 0;
  for (char c : s) {
    bits = (bits << 1) | static_cast<uint32_t>(c == '1');
  }
  return bits;
}

TEST(ShapeEncodingTest, JaccardMatchesPaperFigure10) {
  const uint32_t s0 = BitsFromString("111100001");
  const uint32_t s1 = BitsFromString("011110001");
  const uint32_t s2 = BitsFromString("000010011");
  const uint32_t s3 = BitsFromString("010010011");
  EXPECT_NEAR(JaccardSimilarity(s0, s1), 0.67, 0.01);
  EXPECT_NEAR(JaccardSimilarity(s0, s2), 0.14, 0.01);
  EXPECT_NEAR(JaccardSimilarity(s0, s3), 0.29, 0.01);
  EXPECT_NEAR(JaccardSimilarity(s1, s2), 0.33, 0.01);
  EXPECT_NEAR(JaccardSimilarity(s1, s3), 0.50, 0.01);
  EXPECT_NEAR(JaccardSimilarity(s2, s3), 0.75, 0.01);
}

TEST(ShapeEncodingTest, GreedyReproducesPaperExample) {
  // Figure 10: greedy picks <s0, s1, s3, s2> with cumulative 1.92.
  const std::vector<uint32_t> shapes = {
      BitsFromString("111100001"), BitsFromString("011110001"),
      BitsFromString("000010011"), BitsFromString("010010011")};
  const auto order = OptimizeShapeOrder(shapes, ShapeOrderMethod::kGreedy);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 2u);
  EXPECT_NEAR(CumulativeSimilarity(shapes, order), 1.92, 0.01);
  // Raw order scores 1.75, strictly worse.
  EXPECT_NEAR(CumulativeSimilarity(shapes, {0, 1, 2, 3}), 1.75, 0.02);
}

TEST(ShapeEncodingTest, GeneticNeverWorseThanGreedy) {
  Random rnd(31337);
  for (int trial = 0; trial < 10; trial++) {
    std::vector<uint32_t> shapes;
    const int n = 5 + static_cast<int>(rnd.Uniform(30));
    std::set<uint32_t> unique;
    while (static_cast<int>(unique.size()) < n) {
      unique.insert(static_cast<uint32_t>(rnd.Uniform(1u << 25)) | 1u);
    }
    shapes.assign(unique.begin(), unique.end());

    const auto greedy = OptimizeShapeOrder(shapes, ShapeOrderMethod::kGreedy);
    GeneticParams params;
    params.seed = trial;
    const auto genetic =
        OptimizeShapeOrder(shapes, ShapeOrderMethod::kGenetic, params);
    // The genetic population is seeded with the greedy solution, so its
    // result is always at least as good.
    EXPECT_GE(CumulativeSimilarity(shapes, genetic),
              CumulativeSimilarity(shapes, greedy) - 1e-9);
  }
}

// Stored rows carry genetic shape codes, so every build must reproduce the
// orders of the build that wrote them. The expected hash covers the orders
// returned for 300 seeded inputs of 1..60 shapes, as first recorded.
TEST(ShapeEncodingTest, GeneticOrdersMatchRecordedOrders) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a
  auto mix = [&hash](uint64_t v) { hash = (hash ^ v) * 1099511628211ULL; };
  for (uint64_t i = 0; i < 300; i++) {
    Random rnd(i + 1);
    const size_t n = 1 + i % 60;
    const uint32_t span = i % 2 == 0 ? 1u << 9 : 1u << 25;
    std::vector<uint32_t> shapes;
    while (shapes.size() < n) {
      const uint32_t bits = static_cast<uint32_t>(rnd.Uniform(span)) | 1u;
      if (std::find(shapes.begin(), shapes.end(), bits) == shapes.end()) {
        shapes.push_back(bits);
      }
    }
    GeneticParams params;
    params.seed = i;
    for (uint32_t v :
         OptimizeShapeOrder(shapes, ShapeOrderMethod::kGenetic, params)) {
      mix(v);
    }
    mix(UINT64_MAX);  // input separator
  }
  EXPECT_EQ(hash, 0xb05334d79624a821ULL);
}

TEST(ShapeEncodingTest, OrdersArePermutations) {
  std::vector<uint32_t> shapes = {3, 5, 9, 17, 6, 12, 24, 20};
  for (auto method : {ShapeOrderMethod::kBitmap, ShapeOrderMethod::kGreedy,
                      ShapeOrderMethod::kGenetic}) {
    const auto order = OptimizeShapeOrder(shapes, method);
    std::set<uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), shapes.size());
    EXPECT_EQ(*seen.rbegin(), shapes.size() - 1);
  }
}

TEST(ShapeEncodingTest, SpreadCodesCentreEachSlot) {
  EXPECT_EQ(SpreadCodes(1, 512), (std::vector<uint32_t>{255}));
  EXPECT_EQ(SpreadCodes(4, 512), (std::vector<uint32_t>{63, 191, 319, 447}));
  // A full code space is the dense codes.
  EXPECT_EQ(SpreadCodes(4, 4), (std::vector<uint32_t>{0, 1, 2, 3}));
  // Below full, the last code leaves room at the top.
  EXPECT_EQ(SpreadCodes(15, 16).back(), 14u);
}

TEST(ShapeEncodingTest, PlaceShapeJoinsItsMostSimilarNeighbours) {
  // 0b0110 shares a cell with each of 0b0011 and 0b1100, which share none:
  // it goes between them, in the middle of the free codes 101..299.
  EXPECT_EQ(PlaceShape({{0b0011, 100}, {0b1100, 300}}, 0b0110, 512), 200u);
  // Joining the last shape gains more than splitting a similar pair:
  // after it, in the middle of 301..511.
  EXPECT_EQ(PlaceShape({{0b0011, 100}, {0b0110, 300}}, 0b1100, 512), 406u);
  // Most like the first shape: before it, in the middle of 0..99.
  EXPECT_EQ(PlaceShape({{0b0011, 100}, {0b0110, 300}}, 0b0001, 512), 49u);
  // No code left between the neighbours: the nearest free code, below on
  // a tie.
  EXPECT_EQ(PlaceShape({{0b0011, 100}, {0b1100, 101}}, 0b0110, 512), 99u);
  EXPECT_EQ(PlaceShape({{0b0001, 99}, {0b0011, 100}, {0b1100, 101}}, 0b0110,
                       512),
            102u);
  // An empty element: the middle of the code space.
  EXPECT_EQ(PlaceShape({}, 0b0110, 512), 255u);
}

// ---------------------------------------------------------------------------
// ValueRange

TEST(ValueRangeTest, MergeCoalescesAdjacentAndOverlapping) {
  std::vector<ValueRange> ranges = {{10, 20}, {21, 30}, {5, 8}, {25, 40},
                                    {100, 100}};
  const auto merged = MergeRanges(std::move(ranges));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (ValueRange{5, 8}));
  EXPECT_EQ(merged[1], (ValueRange{10, 40}));
  EXPECT_EQ(merged[2], (ValueRange{100, 100}));
  EXPECT_EQ(TotalCount(merged), 4u + 31 + 1);
}

}  // namespace
}  // namespace tman::index
