#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "geo/douglas_peucker.h"
#include "geo/geometry.h"
#include "geo/similarity.h"

namespace tman::geo {
namespace {

TEST(MBRTest, ExpandAndContains) {
  MBR mbr = MBR::Empty();
  EXPECT_TRUE(mbr.IsEmpty());
  mbr.Expand(Point{1, 2});
  mbr.Expand(Point{3, 1});
  EXPECT_FALSE(mbr.IsEmpty());
  EXPECT_TRUE(mbr.Contains(Point{2, 1.5}));
  EXPECT_FALSE(mbr.Contains(Point{0, 0}));
  EXPECT_DOUBLE_EQ(mbr.width(), 2.0);
  EXPECT_DOUBLE_EQ(mbr.height(), 1.0);
}

TEST(MBRTest, IntersectsIsSymmetricAndTouchCounts) {
  const MBR a{0, 0, 1, 1};
  const MBR b{1, 1, 2, 2};  // touches at corner
  const MBR c{1.1, 1.1, 2, 2};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(MBRTest, MinSquaredDistance) {
  const MBR a{0, 0, 1, 1};
  const MBR b{3, 0, 4, 1};   // 2 apart on x
  const MBR c{0.5, 0.5, 2, 2};  // overlapping
  EXPECT_DOUBLE_EQ(a.MinSquaredDistance(b), 4.0);
  EXPECT_DOUBLE_EQ(a.MinSquaredDistance(c), 0.0);
}

TEST(GeometryTest, HaversineKnownDistance) {
  // Beijing to Shanghai is roughly 1070 km.
  const Point beijing{116.4, 39.9};
  const Point shanghai{121.5, 31.2};
  const double d = HaversineMeters(beijing, shanghai);
  EXPECT_NEAR(d, 1070000, 30000);
}

TEST(GeometryTest, MetersToDegrees) {
  EXPECT_NEAR(MetersToDegreesLat(111320), 1.0, 1e-9);
  // At 60N a degree of longitude is half as long.
  EXPECT_NEAR(MetersToDegreesLon(111320, 60.0), 2.0, 0.01);
}

TEST(GeometryTest, SegmentRectIntersection) {
  const MBR rect{1, 1, 2, 2};
  // Crossing through.
  EXPECT_TRUE(SegmentIntersectsRect(Point{0, 0}, Point{3, 3}, rect));
  // Fully inside.
  EXPECT_TRUE(SegmentIntersectsRect(Point{1.2, 1.2}, Point{1.8, 1.8}, rect));
  // Passing beside.
  EXPECT_FALSE(SegmentIntersectsRect(Point{0, 0}, Point{0, 3}, rect));
  // Diagonal near corner, not touching.
  EXPECT_FALSE(SegmentIntersectsRect(Point{0, 2.5}, Point{0.4, 3}, rect));
  // Clipping case: both endpoints outside on different sides.
  EXPECT_TRUE(SegmentIntersectsRect(Point{0, 1.5}, Point{3, 1.5}, rect));
}

TEST(GeometryTest, PolylineRectIntersection) {
  std::vector<TimedPoint> polyline = {
      {0, 0, 0}, {0.5, 0.5, 1}, {3, 0.5, 2}};
  EXPECT_TRUE(PolylineIntersectsRect(polyline, MBR{1, 0, 2, 1}));
  EXPECT_FALSE(PolylineIntersectsRect(polyline, MBR{1, 2, 2, 3}));
  // Single-point polyline.
  std::vector<TimedPoint> dot = {{1.5, 0.5, 0}};
  EXPECT_TRUE(PolylineIntersectsRect(dot, MBR{1, 0, 2, 1}));
}

TEST(GeometryTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{0, 1}, Point{-1, 0},
                                        Point{1, 0}),
                   1.0);
  // Beyond the end: distance to endpoint.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{3, 0}, Point{-1, 0},
                                        Point{1, 0}),
                   2.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point{3, 4}, Point{0, 0},
                                        Point{0, 0}),
                   5.0);
}

// ---------------------------------------------------------------------------
// Douglas-Peucker

std::vector<TimedPoint> ZigZag(int n) {
  std::vector<TimedPoint> points;
  for (int i = 0; i < n; i++) {
    points.push_back(TimedPoint{static_cast<double>(i),
                                (i % 2 == 0) ? 0.0 : 1.0, i * 10});
  }
  return points;
}

TEST(DouglasPeuckerTest, StraightLineKeepsEndpointsOnly) {
  std::vector<TimedPoint> line;
  for (int i = 0; i <= 10; i++) {
    line.push_back(TimedPoint{i * 1.0, i * 2.0, i});
  }
  const auto kept = DouglasPeucker(line, 0.01);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.front(), 0u);
  EXPECT_EQ(kept.back(), 10u);
}

TEST(DouglasPeuckerTest, ZigZagKeepsAllAboveEpsilon) {
  const auto points = ZigZag(9);
  const auto kept = DouglasPeucker(points, 0.1);
  EXPECT_EQ(kept.size(), points.size());
  const auto coarse = DouglasPeucker(points, 10.0);
  EXPECT_EQ(coarse.size(), 2u);
}

TEST(DPFeaturesTest, RootFeatureCoversWholeTrajectory) {
  const auto points = ZigZag(21);
  const DPFeatures features = ExtractDPFeatures(points, 7);
  ASSERT_GE(features.features.size(), 1u);
  EXPECT_LE(features.features.size(), 7u);
  EXPECT_EQ(features.features[0].start, 0u);
  EXPECT_EQ(features.features[0].end, 20u);
  // The root box equals the trajectory MBR.
  EXPECT_DOUBLE_EQ(features.features[0].box.min_x, features.mbr.min_x);
  EXPECT_DOUBLE_EQ(features.features[0].box.max_y, features.mbr.max_y);
  // Every rep point is an actual trajectory point.
  for (const DPFeature& f : features.features) {
    bool found = false;
    for (const TimedPoint& p : points) {
      if (p.x == f.rep.x && p.y == f.rep.y && p.t == f.rep.t) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(DPFeaturesTest, SerializationRoundTrip) {
  const auto points = ZigZag(15);
  const DPFeatures features = ExtractDPFeatures(points, 5);
  std::string blob;
  EncodeDPFeatures(features, &blob);
  DPFeatures decoded;
  ASSERT_TRUE(DecodeDPFeatures(blob.data(), blob.size(), &decoded));
  ASSERT_EQ(decoded.features.size(), features.features.size());
  EXPECT_DOUBLE_EQ(decoded.mbr.min_x, features.mbr.min_x);
  for (size_t i = 0; i < features.features.size(); i++) {
    EXPECT_DOUBLE_EQ(decoded.features[i].rep.x, features.features[i].rep.x);
    EXPECT_EQ(decoded.features[i].rep.t, features.features[i].rep.t);
    EXPECT_EQ(decoded.features[i].start, features.features[i].start);
    EXPECT_EQ(decoded.features[i].end, features.features[i].end);
  }
}

TEST(DPFeaturesTest, RejectsCountBeyondBlob) {
  const DPFeatures features = ExtractDPFeatures(ZigZag(15), 5);
  std::string blob;
  EncodeDPFeatures(features, &blob);
  // The feature count follows the four MBR doubles.
  const std::string mbr = blob.substr(0, 32);
  const std::string body = blob.substr(33);
  ASSERT_EQ(static_cast<uint8_t>(blob[32]), features.features.size());
  for (uint32_t count : {static_cast<uint32_t>(features.features.size() + 1),
                         0xFFFFFFF0u}) {
    std::string corrupt = mbr;
    PutVarint32(&corrupt, count);
    corrupt += body;
    DPFeatures decoded;
    EXPECT_NO_THROW({
      EXPECT_FALSE(DecodeDPFeatures(corrupt.data(), corrupt.size(), &decoded));
    }) << count;
  }
}

// ---------------------------------------------------------------------------
// Similarity

std::vector<TimedPoint> Shifted(const std::vector<TimedPoint>& points,
                                double dx, double dy) {
  std::vector<TimedPoint> result = points;
  for (auto& p : result) {
    p.x += dx;
    p.y += dy;
  }
  return result;
}

TEST(SimilarityTest, IdenticalTrajectoriesHaveZeroDistance) {
  const auto a = ZigZag(20);
  EXPECT_DOUBLE_EQ(DiscreteFrechet(a, a), 0.0);
  EXPECT_DOUBLE_EQ(DTWDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, a), 0.0);
}

TEST(SimilarityTest, ParallelShiftGivesShiftDistance) {
  const auto a = ZigZag(20);
  const auto b = Shifted(a, 0.0, 0.5);
  EXPECT_NEAR(DiscreteFrechet(a, b), 0.5, 1e-9);
  EXPECT_NEAR(HausdorffDistance(a, b), 0.5, 1e-9);
  // DTW sums per-step costs: n * 0.5 when aligned 1:1.
  EXPECT_NEAR(DTWDistance(a, b), 20 * 0.5, 1e-6);
}

TEST(SimilarityTest, FrechetAtLeastHausdorff) {
  Random rnd(3);
  for (int trial = 0; trial < 20; trial++) {
    std::vector<TimedPoint> a, b;
    for (int i = 0; i < 15; i++) {
      a.push_back(TimedPoint{rnd.UniformDouble(0, 1), rnd.UniformDouble(0, 1),
                             i});
      b.push_back(TimedPoint{rnd.UniformDouble(0, 1), rnd.UniformDouble(0, 1),
                             i});
    }
    EXPECT_GE(DiscreteFrechet(a, b) + 1e-12, HausdorffDistance(a, b));
  }
}

TEST(SimilarityTest, MBRLowerBoundNeverExceedsTrueDistance) {
  Random rnd(17);
  for (int trial = 0; trial < 30; trial++) {
    std::vector<TimedPoint> a, b;
    const double bx = rnd.UniformDouble(0, 2);
    for (int i = 0; i < 12; i++) {
      a.push_back(TimedPoint{rnd.UniformDouble(0, 1), rnd.UniformDouble(0, 1),
                             i});
      b.push_back(TimedPoint{bx + rnd.UniformDouble(0, 1),
                             rnd.UniformDouble(0, 1), i});
    }
    const double lb = MBRLowerBound(ComputeMBR(a), ComputeMBR(b));
    EXPECT_LE(lb, DiscreteFrechet(a, b) + 1e-9);
    EXPECT_LE(lb, HausdorffDistance(a, b) + 1e-9);
    EXPECT_LE(lb, DTWDistance(a, b) + 1e-9);
  }
}

TEST(SimilarityTest, DPFeatureBoundTighterThanOrEqualMBRBound) {
  Random rnd(29);
  for (int trial = 0; trial < 30; trial++) {
    std::vector<TimedPoint> a, b;
    for (int i = 0; i < 20; i++) {
      a.push_back(TimedPoint{rnd.UniformDouble(0, 1), rnd.UniformDouble(0, 1),
                             i});
      b.push_back(TimedPoint{2 + rnd.UniformDouble(0, 1),
                             rnd.UniformDouble(0, 1), i});
    }
    const DPFeatures fa = ExtractDPFeatures(a, 6);
    const DPFeatures fb = ExtractDPFeatures(b, 6);
    const double dp_lb = DPFeatureLowerBound(fa, fb);
    EXPECT_GE(dp_lb + 1e-12, MBRLowerBound(fa.mbr, fb.mbr));
    // Still a valid lower bound for all measures.
    EXPECT_LE(dp_lb, DiscreteFrechet(a, b) + 1e-9);
    EXPECT_LE(dp_lb, HausdorffDistance(a, b) + 1e-9);
  }
}

// The DP lower bound read in place from a stored feature column equals
// DPFeatureLowerBound over the decoded column, bit for bit, and the reader
// refuses exactly the columns DecodeDPFeatures rejects: truncations and
// byte flips included, whose doubles may be NaN or infinite.
TEST(SimilarityTest, InPlaceDPBoundMatchesDecodedBitForBit) {
  Random rnd(47);
  int bounded = 0, refused = 0;
  for (int trial = 0; trial < 400; trial++) {
    std::vector<TimedPoint> a, b;
    const int na = 1 + static_cast<int>(rnd.Uniform(30));
    const int nb = 1 + static_cast<int>(rnd.Uniform(30));
    const double bx = rnd.UniformDouble(-1, 2);
    for (int i = 0; i < na; i++) {
      a.push_back(TimedPoint{rnd.UniformDouble(0, 1), rnd.UniformDouble(0, 1),
                             i});
    }
    for (int i = 0; i < nb; i++) {
      b.push_back(TimedPoint{bx + rnd.UniformDouble(0, 1),
                             rnd.UniformDouble(0, 1), i});
    }
    const DPFeatures query = ExtractDPFeatures(a, 1 + rnd.Uniform(16));
    std::string column;
    EncodeDPFeatures(ExtractDPFeatures(b, 1 + rnd.Uniform(16)), &column);

    std::vector<std::string> columns = {column};
    columns.push_back(column.substr(0, rnd.Uniform(column.size())));
    for (int flip = 0; flip < 4; flip++) {
      std::string corrupt = column;
      corrupt[rnd.Uniform(corrupt.size())] ^=
          static_cast<char>(1 + rnd.Uniform(255));
      columns.push_back(corrupt);
    }
    for (const std::string& c : columns) {
      // An exactly sized heap copy, so a sanitizer build flags any read
      // past the column.
      const std::vector<char> bytes(c.begin(), c.end());
      DPFeatures decoded;
      const bool decodes =
          DecodeDPFeatures(bytes.data(), bytes.size(), &decoded);
      double in_place = -1;
      ASSERT_EQ(DPFeatureLowerBound(query, bytes.data(), bytes.size(),
                                    &in_place),
                decodes)
          << trial;
      if (!decodes) {
        refused++;
        continue;
      }
      bounded++;
      const double expected = DPFeatureLowerBound(query, decoded);
      EXPECT_EQ(std::memcmp(&in_place, &expected, sizeof(double)), 0)
          << trial << ": " << in_place << " vs " << expected;
    }
  }
  EXPECT_GT(bounded, 400);
  EXPECT_GT(refused, 400);
}

}  // namespace
}  // namespace tman::geo
