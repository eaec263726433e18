// Edge cases of the similarity kernels and the push-down similarity
// filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/coding.h"
#include "common/random.h"
#include "core/filters.h"
#include "core/record.h"
#include "geo/similarity.h"

namespace tman::geo {
namespace {

std::vector<TimedPoint> Line(double x0, double y0, double x1, double y1,
                             int n) {
  std::vector<TimedPoint> points;
  for (int i = 0; i < n; i++) {
    const double f = n == 1 ? 0 : static_cast<double>(i) / (n - 1);
    points.push_back(
        TimedPoint{x0 + f * (x1 - x0), y0 + f * (y1 - y0), i * 10});
  }
  return points;
}

TEST(SimilarityEdgeTest, SinglePointTrajectories) {
  const auto a = Line(0, 0, 0, 0, 1);
  const auto b = Line(3, 4, 3, 4, 1);
  EXPECT_DOUBLE_EQ(DiscreteFrechet(a, b), 5.0);
  EXPECT_DOUBLE_EQ(DTWDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, b), 5.0);
}

TEST(SimilarityEdgeTest, EmptyTrajectoryIsInfinitelyFar) {
  const std::vector<TimedPoint> empty;
  const auto a = Line(0, 0, 1, 1, 5);
  EXPECT_GT(DiscreteFrechet(empty, a), 1e200);
  EXPECT_GT(DTWDistance(a, empty), 1e200);
  EXPECT_GT(HausdorffDistance(empty, empty), 1e200);
}

TEST(SimilarityEdgeTest, AsymmetricLengths) {
  // The same line sampled at different densities: the discrete measures
  // see at most half the coarser sampling interval (0.02 here).
  const auto sparse = Line(0, 0, 1, 0, 51);   // spacing 0.02
  const auto dense = Line(0, 0, 1, 0, 101);   // spacing 0.01
  EXPECT_LT(DiscreteFrechet(sparse, dense), 0.0201);
  EXPECT_LT(HausdorffDistance(sparse, dense), 0.0101);
}

TEST(SimilarityEdgeTest, FrechetRespectsOrdering) {
  // The same point set traversed in opposite directions: Hausdorff is 0,
  // Fréchet is not (it must couple endpoints monotonically).
  const auto forward = Line(0, 0, 1, 0, 10);
  auto backward = forward;
  std::reverse(backward.begin(), backward.end());
  EXPECT_LT(HausdorffDistance(forward, backward), 1e-9);
  EXPECT_NEAR(DiscreteFrechet(forward, backward), 1.0, 1e-9);
}

TEST(SimilarityEdgeTest, DTWTriangleSanity) {
  // DTW of identical is 0; shifting by d adds >= d.
  const auto a = Line(0, 0, 1, 1, 20);
  auto shifted = a;
  for (auto& p : shifted) p.x += 0.3;
  EXPECT_GE(DTWDistance(a, shifted), 0.3);
}

// Textbook discrete Fréchet over the full coupling matrix: the reference
// the bounded kernel must reproduce bit for bit.
double TextbookFrechet(const std::vector<TimedPoint>& a,
                       const std::vector<TimedPoint>& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<std::vector<double>> c(n, std::vector<double>(m));
  for (size_t i = 0; i < n; i++) {
    for (size_t j = 0; j < m; j++) {
      const double d = Distance(Point{a[i].x, a[i].y}, Point{b[j].x, b[j].y});
      if (i == 0 && j == 0) {
        c[i][j] = d;
      } else if (i == 0) {
        c[i][j] = std::max(c[i][j - 1], d);
      } else if (j == 0) {
        c[i][j] = std::max(c[i - 1][j], d);
      } else {
        c[i][j] = std::max(
            std::min({c[i - 1][j], c[i - 1][j - 1], c[i][j - 1]}), d);
      }
    }
  }
  return c[n - 1][m - 1];
}

std::vector<TimedPoint> RandomWalk(Random* rnd, size_t n, double step) {
  std::vector<TimedPoint> points;
  double x = rnd->UniformDouble(110, 120);
  double y = rnd->UniformDouble(30, 40);
  for (size_t i = 0; i < n; i++) {
    x += rnd->UniformDouble(-step, step);
    y += rnd->UniformDouble(-step, step);
    points.push_back(TimedPoint{x, y, static_cast<int64_t>(i) * 30});
  }
  return points;
}

// One seeded pair per case, cycling through the shapes that stress the
// early exits: single points, identical, reversed, equal endpoints with
// different middles, and independent random walks.
std::pair<std::vector<TimedPoint>, std::vector<TimedPoint>> SeededPair(
    uint64_t i) {
  Random rnd(i + 1);
  const size_t n = 1 + rnd.Uniform(40);
  const size_t m = 1 + rnd.Uniform(40);
  const double step = i % 3 == 0 ? 1e-4 : 1e-2;
  std::vector<TimedPoint> a = RandomWalk(&rnd, n, step);
  switch (i % 5) {
    case 0:
      return {Line(a[0].x, a[0].y, a[0].x, a[0].y, 1),
              RandomWalk(&rnd, i % 2 == 0 ? 1 : m, step)};
    case 1:
      return {a, a};
    case 2: {
      std::vector<TimedPoint> reversed(a.rbegin(), a.rend());
      return {a, reversed};
    }
    case 3: {
      std::vector<TimedPoint> b = RandomWalk(&rnd, m + 1, step);
      b.front() = a.front();
      b.back() = a.back();
      return {a, b};
    }
    default: {
      std::vector<TimedPoint> b = RandomWalk(&rnd, m, step);
      return {a, b};
    }
  }
}

TEST(ExactDistanceWithinTest, FrechetMatchesTextbookWithinAndExceedsAbove) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEps = 1e-9;
  size_t within = 0, above = 0;
  for (uint64_t i = 0; i < 3000; i++) {
    const auto [a, b] = SeededPair(i);
    const double d = TextbookFrechet(a, b);
    ASSERT_EQ(DiscreteFrechet(a, b), d) << i;
    for (double bound : {0.0, std::nextafter(d, 0.0), d * (1 - kEps), d,
                         std::nextafter(d, kInf), d * (1 + kEps), kInf}) {
      const double got =
          ExactDistanceWithin(SimilarityMeasure::kFrechet, a, b, bound);
      if (d <= bound) {
        within++;
        EXPECT_EQ(got, d) << "case " << i << " bound " << bound;
      } else {
        above++;
        EXPECT_GT(got, bound) << "case " << i << " d " << d;
      }
    }
  }
  EXPECT_GT(within, 0u);
  EXPECT_GT(above, 0u);
}

TEST(ExactDistanceWithinTest, OtherMeasuresAndEmptyInputsAreExact) {
  for (uint64_t i = 0; i < 200; i++) {
    const auto [a, b] = SeededPair(i);
    for (auto measure :
         {SimilarityMeasure::kDTW, SimilarityMeasure::kHausdorff}) {
      const double d = ExactDistance(measure, a, b);
      EXPECT_EQ(ExactDistanceWithin(measure, a, b, d), d) << i;
      if (d > 0) {
        EXPECT_GT(ExactDistanceWithin(measure, a, b, d / 2), d / 2) << i;
      }
    }
  }
  const std::vector<TimedPoint> empty;
  const auto a = Line(0, 0, 1, 1, 5);
  EXPECT_EQ(ExactDistanceWithin(SimilarityMeasure::kFrechet, empty, a,
                                std::numeric_limits<double>::infinity()),
            DiscreteFrechet(empty, a));
  EXPECT_GT(ExactDistanceWithin(SimilarityMeasure::kFrechet, a, empty, 1.0),
            1.0);
  // A negative bound admits no distance.
  EXPECT_GT(ExactDistanceWithin(SimilarityMeasure::kFrechet, a, a, -1.0),
            -1.0);
}

}  // namespace
}  // namespace tman::geo

namespace tman::core {
namespace {

traj::Trajectory MakeTrajectory(double x0, double y0, int n) {
  traj::Trajectory t;
  t.oid = std::string("o");
  t.tid = std::string("t");
  for (int i = 0; i < n; i++) {
    t.points.push_back(geo::TimedPoint{x0 + i * 0.01, y0, i * 30});
  }
  return t;
}

TEST(SimilarityFilterTest, PassesNearAndRejectsFar) {
  const traj::Trajectory query = MakeTrajectory(0, 0, 10);
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, 4);
  SimilarityFilter filter(query_features, 0.05);

  std::string near_value, far_value;
  ASSERT_TRUE(EncodeRecord(MakeTrajectory(0, 0.01, 10), 4, &near_value));
  ASSERT_TRUE(EncodeRecord(MakeTrajectory(0, 5.0, 10), 4, &far_value));
  EXPECT_TRUE(filter.Matches("k", near_value));
  EXPECT_FALSE(filter.Matches("k", far_value));
  EXPECT_FALSE(filter.Matches("k", "garbage"));
}

TEST(SimilarityFilterTest, NeverRejectsTrueMatches) {
  // Soundness: any trajectory within the threshold must pass the filter.
  const traj::Trajectory query = MakeTrajectory(0, 0, 20);
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, 6);
  const double threshold = 0.1;
  SimilarityFilter filter(query_features, threshold);
  for (double dy : {0.0, 0.02, 0.05, 0.099}) {
    const traj::Trajectory candidate = MakeTrajectory(0, dy, 20);
    const double d = geo::DiscreteFrechet(query.points, candidate.points);
    if (d <= threshold) {
      std::string value;
      ASSERT_TRUE(EncodeRecord(candidate, 6, &value));
      EXPECT_TRUE(filter.Matches("k", value)) << "dy=" << dy;
    }
  }
}

// A row whose DP-feature column does not decode cannot be bounded, so the
// filter keeps it for exact verification instead of judging it by the
// column.
TEST(SimilarityFilterTest, UndecodableFeatureColumnKeepsTheRow) {
  // An L-shaped query whose corner (1, 0) is a representative point, and a
  // candidate inside the query's MBR, far from that corner: the MBR bound
  // is 0, the DP bound about 1.27.
  traj::Trajectory query;
  query.points = {geo::TimedPoint{0, 0, 0}, geo::TimedPoint{1, 0, 10},
                  geo::TimedPoint{1, 1, 20}};
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, 4);
  traj::Trajectory candidate;
  candidate.points = {geo::TimedPoint{0, 0.9, 0},
                      geo::TimedPoint{0.1, 1, 10}};
  std::string value;
  ASSERT_TRUE(EncodeRecord(candidate, 4, &value));
  SimilarityFilter filter(query_features, 0.5);
  EXPECT_FALSE(filter.Matches("k", value));

  // The feature column is the last field: drop its last byte.
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(value, &header));
  const std::string column(header.dp_blob.data(), header.dp_blob.size() - 1);
  geo::DPFeatures rejected;
  ASSERT_FALSE(
      geo::DecodeDPFeatures(column.data(), column.size(), &rejected));
  std::string corrupt = value.substr(
      0, static_cast<size_t>(header.dp_blob.data() - value.data()) -
             VarintLength(header.dp_blob.size()));
  PutLengthPrefixedSlice(&corrupt, column);
  EXPECT_TRUE(filter.Matches("k", corrupt));
}

}  // namespace
}  // namespace tman::core
