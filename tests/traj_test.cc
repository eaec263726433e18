#include <gtest/gtest.h>

#include <algorithm>

#include "traj/generator.h"
#include "traj/trajectory.h"

namespace tman::traj {
namespace {

TEST(TrajectoryTest, TimeRangeAndMBR) {
  Trajectory t;
  t.points = {{116.1, 39.5, 100}, {116.3, 39.7, 200}, {116.2, 39.9, 300}};
  EXPECT_EQ(t.start_time(), 100);
  EXPECT_EQ(t.end_time(), 300);
  EXPECT_EQ(t.duration(), 200);
  const geo::MBR mbr = t.ComputeMBR();
  EXPECT_DOUBLE_EQ(mbr.min_x, 116.1);
  EXPECT_DOUBLE_EQ(mbr.max_y, 39.9);
  EXPECT_TRUE(t.IntersectsTimeRange(250, 400));
  EXPECT_FALSE(t.IntersectsTimeRange(301, 400));
}

TEST(SpatialBoundsTest, NormalizeMapsToUnitSquare) {
  SpatialBounds bounds{100, 30, 120, 40};
  const geo::Point p = bounds.Normalize(geo::Point{110, 35});
  EXPECT_DOUBLE_EQ(p.x, 0.5);
  EXPECT_DOUBLE_EQ(p.y, 0.5);
  const geo::MBR m = bounds.Normalize(geo::MBR{100, 30, 120, 40});
  EXPECT_DOUBLE_EQ(m.min_x, 0.0);
  EXPECT_DOUBLE_EQ(m.max_x, 1.0);
}

TEST(GeneratorTest, DeterministicAndWellFormed) {
  const DatasetSpec spec = TDriveLikeSpec();
  const auto a = Generate(spec, 50, 42);
  const auto b = Generate(spec, 50, 42);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].tid, b[i].tid);
    ASSERT_FALSE(a[i].points.empty());
    EXPECT_EQ(a[i].points.size(), b[i].points.size());
    EXPECT_EQ(a[i].points[0].t, b[i].points[0].t);
    // Points inside the dataset boundary, timestamps monotone.
    for (size_t j = 0; j < a[i].points.size(); j++) {
      const auto& p = a[i].points[j];
      EXPECT_GE(p.x, spec.bounds.min_lon);
      EXPECT_LE(p.x, spec.bounds.max_lon);
      EXPECT_GE(p.y, spec.bounds.min_lat);
      EXPECT_LE(p.y, spec.bounds.max_lat);
      if (j > 0) {
        EXPECT_GT(p.t, a[i].points[j - 1].t);
      }
    }
  }
}

TEST(GeneratorTest, DurationDistributionMatchesSpec) {
  const DatasetSpec spec = LorryLikeSpec();
  const auto data = Generate(spec, 2000, 7);
  int below_2h = 0;
  int below_14h = 0;
  for (const auto& t : data) {
    if (t.duration() <= 2 * 3600) below_2h++;
    if (t.duration() <= 14 * 3600) below_14h++;
  }
  // Paper Fig 14(b): ~88% below 2h, ~99% below 14h.
  EXPECT_NEAR(below_2h / 2000.0, 0.88, 0.05);
  EXPECT_GT(below_14h / 2000.0, 0.97);
}

TEST(GeneratorTest, ObjectsProduceMultipleTrajectories) {
  const DatasetSpec spec = TDriveLikeSpec();
  const auto data = Generate(spec, 500, 3);
  std::map<std::string, int> per_object;
  for (const auto& t : data) per_object[t.oid]++;
  EXPECT_LT(per_object.size(), data.size());
  int max_count = 0;
  for (const auto& [oid, n] : per_object) max_count = std::max(max_count, n);
  EXPECT_GT(max_count, 1);
}

TEST(GeneratorTest, ReplicateOffsetsTimeAndKeepsCount) {
  const DatasetSpec spec = LorryLikeSpec();
  const auto base = Generate(spec, 20, 5);
  const auto replicated = Replicate(spec, base, 3, 5);
  ASSERT_EQ(replicated.size(), 60u);
  // Copy 2's trajectories start two horizons later.
  EXPECT_EQ(replicated[40].points[0].t,
            base[0].points[0].t + 2 * spec.horizon_seconds);
  // tids stay unique.
  std::set<std::string> tids;
  for (const auto& t : replicated) {
    EXPECT_TRUE(tids.insert(t.tid).second);
  }
}

TEST(GeneratorTest, QueryWindowsInsideDataset) {
  const DatasetSpec spec = TDriveLikeSpec();
  const auto tw = RandomTimeWindows(spec, 20, 3600, 1);
  ASSERT_EQ(tw.size(), 20u);
  for (const auto& w : tw) {
    EXPECT_GE(w.ts, spec.t0);
    EXPECT_LE(w.te, spec.t0 + spec.horizon_seconds);
    EXPECT_EQ(w.te - w.ts, 3600);
  }
  const auto sw = RandomSpaceWindows(spec, 20, 1500, 1);
  for (const auto& w : sw) {
    EXPECT_GT(w.rect.width(), 0);
    // ~1.5km in degrees at Beijing latitude.
    EXPECT_NEAR(w.rect.height(), 1500.0 / 111320.0, 1e-6);
  }
}

}  // namespace
}  // namespace tman::traj
