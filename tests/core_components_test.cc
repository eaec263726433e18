#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "cachestore/redis_like.h"
#include "common/random.h"
#include "core/filters.h"
#include "core/index_cache.h"
#include "core/record.h"
#include "core/rowkey.h"
#include "traj/generator.h"

namespace tman::core {
namespace {

traj::Trajectory MakeTrajectory(const std::string& oid, const std::string& tid,
                                double x0, double y0, int64_t t0, int n) {
  traj::Trajectory t;
  t.oid = oid;
  t.tid = tid;
  for (int i = 0; i < n; i++) {
    t.points.push_back(
        geo::TimedPoint{x0 + i * 0.001, y0 + i * 0.0005, t0 + i * 30});
  }
  return t;
}

// ---------------------------------------------------------------------------
// Record

TEST(RecordTest, HeaderFieldsWithoutDecompression) {
  const traj::Trajectory t = MakeTrajectory("o1", "t1", 116.3, 39.9,
                                            1400000000, 50);
  std::string value;
  ASSERT_TRUE(EncodeRecord(t, 4, &value));
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(value, &header));
  EXPECT_EQ(header.oid.ToString(), "o1");
  EXPECT_EQ(header.tid.ToString(), "t1");
  EXPECT_EQ(header.ts, 1400000000);
  EXPECT_EQ(header.te, 1400000000 + 49 * 30);
  EXPECT_DOUBLE_EQ(header.mbr.min_x, 116.3);
  EXPECT_DOUBLE_EQ(header.mbr.max_x, 116.3 + 49 * 0.001);
}

TEST(RecordTest, FeaturesDecode) {
  const traj::Trajectory t = MakeTrajectory("o", "t", 113.0, 23.0,
                                            1393632000, 80);
  std::string value;
  ASSERT_TRUE(EncodeRecord(t, 6, &value));
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(value, &header));
  geo::DPFeatures features;
  ASSERT_TRUE(DecodeRecordFeatures(header, &features));
  EXPECT_GE(features.features.size(), 1u);
  EXPECT_LE(features.features.size(), 6u);
  EXPECT_DOUBLE_EQ(features.mbr.min_x, header.mbr.min_x);
}

TEST(RecordTest, RejectsEmptyTrajectory) {
  traj::Trajectory empty;
  std::string value;
  EXPECT_FALSE(EncodeRecord(empty, 4, &value));
}

TEST(RecordTest, RejectsTruncatedValue) {
  const traj::Trajectory t = MakeTrajectory("o", "t", 116, 39, 1, 10);
  std::string value;
  ASSERT_TRUE(EncodeRecord(t, 4, &value));
  for (size_t cut : {size_t{0}, size_t{3}, value.size() / 2}) {
    RecordHeader header;
    EXPECT_FALSE(
        DecodeRecordHeader(Slice(value.data(), cut), &header))
        << "cut=" << cut;
  }
}

TEST(RecordTest, CompressionBeatsRawLayout) {
  const traj::Trajectory t = MakeTrajectory("o", "t", 116, 39, 1400000000,
                                            500);
  std::string value;
  ASSERT_TRUE(EncodeRecord(t, 8, &value));
  EXPECT_LT(value.size(), 500u * 24) << "points column must compress";
}

// ---------------------------------------------------------------------------
// Rowkey

TEST(RowkeyTest, PrimaryKeyOrdersByValueWithinShard) {
  const std::string a = PrimaryKey(2, 100, "tid-a");
  const std::string b = PrimaryKey(2, 101, "tid-a");
  const std::string c = PrimaryKey(2, 100, "tid-b");
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, b);  // same value sorts before the next value
}

TEST(RowkeyTest, TidRecovery) {
  const std::string key = PrimaryKey(1, 42, "lorry-t-7");
  EXPECT_EQ(TidOfPrimaryKey(key, 8).ToString(), "lorry-t-7");
  const std::string st_key = PrimaryKeyST(1, 42, 43, "lorry-t-7");
  EXPECT_EQ(TidOfPrimaryKey(st_key, 16).ToString(), "lorry-t-7");
}

TEST(RowkeyTest, ShardsAreStableAndInRange) {
  for (int shards : {1, 4, 8, 16}) {
    for (int i = 0; i < 100; i++) {
      const std::string tid = "t" + std::to_string(i);
      const uint8_t s1 = ShardOfTid(tid, shards);
      const uint8_t s2 = ShardOfTid(tid, shards);
      EXPECT_EQ(s1, s2);
      EXPECT_LT(s1, shards);
    }
  }
}

TEST(RowkeyTest, WindowsCoverExactlyTheRange) {
  const auto windows =
      WindowsForRanges({index::ValueRange{10, 20}}, /*num_shards=*/4);
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& w : windows) {
    // Keys for values 10 and 20 are inside; 9 and 21 are not.
    const uint8_t shard = static_cast<uint8_t>(w.start[0]);
    EXPECT_GE(PrimaryKey(shard, 10, "x"), w.start);
    EXPECT_LT(PrimaryKey(shard, 20, "x"), w.end);
    EXPECT_LT(PrimaryKey(shard, 9, "zzz"), w.start);
    EXPECT_GE(PrimaryKey(shard, 21, ""), w.end);
  }
}

TEST(RowkeyTest, IDTWindowsTargetSingleShard) {
  const auto windows =
      WindowsForIDT("courier-9", {index::ValueRange{5, 9}}, 8);
  ASSERT_EQ(windows.size(), 1u);
  const uint8_t shard = ShardOfOid("courier-9", 8);
  EXPECT_EQ(static_cast<uint8_t>(windows[0].start[0]), shard);
  const std::string inside = IDTKey(shard, "courier-9", 7, "t");
  EXPECT_GE(inside, windows[0].start);
  EXPECT_LT(inside, windows[0].end);
  // A different object in the same shard never falls in the window.
  const std::string other = IDTKey(shard, "courier-Z", 7, "t");
  EXPECT_TRUE(other < windows[0].start || other >= windows[0].end);
}

TEST(RowkeyTest, STWindowsPinTemporalPrefix) {
  const auto windows = WindowsForSTRanges({index::ValueRange{99, 99}},
                                          {index::ValueRange{4, 6}}, 2);
  ASSERT_EQ(windows.size(), 2u);
  for (const auto& w : windows) {
    const uint8_t shard = static_cast<uint8_t>(w.start[0]);
    EXPECT_GE(PrimaryKeyST(shard, 99, 5, "t"), w.start);
    EXPECT_LT(PrimaryKeyST(shard, 99, 5, "t"), w.end);
    // Same spatial value under a different tr value is excluded.
    const std::string other_tr = PrimaryKeyST(shard, 98, 5, "t");
    EXPECT_TRUE(other_tr < w.start || other_tr >= w.end);
  }
}

// ---------------------------------------------------------------------------
// Filters

std::string EncodeFor(const traj::Trajectory& t) {
  std::string value;
  EncodeRecord(t, 4, &value);
  return value;
}

TEST(FiltersTest, TemporalRangeFilter) {
  const auto value = EncodeFor(MakeTrajectory("o", "t", 116, 39, 1000, 10));
  // Trajectory spans [1000, 1270].
  EXPECT_TRUE(TemporalRangeFilter(900, 1000).Matches("k", value));
  EXPECT_TRUE(TemporalRangeFilter(1270, 2000).Matches("k", value));
  EXPECT_TRUE(TemporalRangeFilter(1100, 1200).Matches("k", value));
  EXPECT_FALSE(TemporalRangeFilter(0, 999).Matches("k", value));
  EXPECT_FALSE(TemporalRangeFilter(1271, 9999).Matches("k", value));
}

TEST(FiltersTest, SpatialFilterUsesExactGeometryNotJustMBR) {
  // A diagonal line: its MBR covers the query window but the polyline
  // itself stays away from the window corner.
  traj::Trajectory diag;
  diag.oid = "o";
  diag.tid = "t";
  for (int i = 0; i <= 20; i++) {
    diag.points.push_back(geo::TimedPoint{i * 0.01, i * 0.01, i * 30});
  }
  const auto value = EncodeFor(diag);
  // Window in the empty upper-left corner of the MBR.
  const geo::MBR corner{0.0, 0.15, 0.02, 0.2};
  EXPECT_TRUE(geo::MBR(0.0, 0.0, 0.2, 0.2).Intersects(corner));
  EXPECT_FALSE(SpatialRangeFilter(corner).Matches("k", value));
  // Window straddling the diagonal matches.
  EXPECT_TRUE(
      SpatialRangeFilter(geo::MBR{0.05, 0.05, 0.07, 0.07}).Matches("k", value));
}

TEST(FiltersTest, ChainIsConjunction) {
  const auto value = EncodeFor(MakeTrajectory("o", "t", 116, 39, 1000, 10));
  FilterChain chain;
  chain.Add(std::make_unique<TemporalRangeFilter>(900, 2000));  // passes
  chain.Add(std::make_unique<SpatialRangeFilter>(
      geo::MBR{200, 200, 201, 201}));  // fails
  EXPECT_FALSE(chain.Matches("k", value));

  FilterChain both_pass;
  both_pass.Add(std::make_unique<TemporalRangeFilter>(900, 2000));
  both_pass.Add(std::make_unique<SpatialRangeFilter>(
      geo::MBR{115, 38, 117, 41}));
  EXPECT_TRUE(both_pass.Matches("k", value));
}

TEST(FiltersTest, MalformedValueRejected) {
  EXPECT_FALSE(TemporalRangeFilter(0, 1).Matches("k", "garbage"));
  EXPECT_FALSE(SpatialRangeFilter(geo::MBR{0, 0, 1, 1}).Matches("k", "xx"));
  EXPECT_FALSE(
      MBRDistanceFilter(geo::MBR{0, 0, 1, 1}, 10.0).Matches("k", "xx"));
}

// The top-k rounds' filters over radii r0 * 2^i deliver each row once. The
// model planner puts a row in round r's windows once radius r reaches its
// "cell distance", which is at least its MBR lower bound and for half the
// rows larger, as with TShape's shape pruning: such a row can enter the
// windows rounds after its lower bound fell inside the radius, and must be
// delivered then.
TEST(FiltersTest, MBRDistanceRoundsDeliverEachRowOnce) {
  const geo::MBR query{116.40, 39.90, 116.41, 39.91};
  constexpr double kR0 = 0.002;
  constexpr int kRounds = 8;
  std::vector<double> radii;
  for (int i = 0; i < kRounds; i++) radii.push_back(kR0 * (1 << i));

  Random rng(20261019);
  constexpr int kRows = 2000;
  std::vector<std::string> keys, values;
  std::vector<double> lower_bounds, cell_distances;
  for (int i = 0; i < kRows; i++) {
    // Random MBRs around the query, from overlapping it to well beyond the
    // last radius; every tenth one overlaps the query (distance 0).
    const double cx = i % 10 == 0 ? 116.405 : rng.UniformDouble(115.9, 116.9);
    const double cy = i % 10 == 0 ? 39.905 : rng.UniformDouble(39.4, 40.4);
    traj::Trajectory t;
    t.oid = "o" + std::to_string(i);
    t.tid = t.oid + "-t";
    t.points = {geo::TimedPoint{cx, cy, 1000},
                geo::TimedPoint{cx + rng.UniformDouble(0, 0.01),
                                cy + rng.UniformDouble(0, 0.01), 1030}};
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    keys.push_back(key);
    values.push_back(EncodeFor(t));
    RecordHeader header;
    ASSERT_TRUE(DecodeRecordHeader(values.back(), &header));
    lower_bounds.push_back(geo::MBRLowerBound(header.mbr, query));
    cell_distances.push_back(lower_bounds.back() +
                             (i % 2 == 0 ? rng.UniformDouble(0, 0.05) : 0));
  }
  // Round r's windows: sorted, disjoint ranges over the rows whose cell
  // distance is within its radius.
  auto windows_for = [&](double radius) {
    std::vector<cluster::KeyRange> windows;
    bool open = false;
    for (int i = 0; i < kRows; i++) {
      if (cell_distances[i] > radius) {
        open = false;
        continue;
      }
      if (open) {
        windows.back().end = keys[i] + '\0';
      } else {
        windows.push_back(cluster::KeyRange{keys[i], keys[i] + '\0'});
      }
      open = true;
    }
    return windows;
  };

  std::vector<int> deliveries(kRows, 0), first_round(kRows, -1);
  std::vector<cluster::KeyRange> previous;
  for (int r = 0; r < kRounds; r++) {
    std::vector<cluster::KeyRange> windows = windows_for(radii[r]);
    const MBRDistanceFilter filter(query, radii[r], r == 0 ? 0 : radii[r - 1],
                                   previous);
    for (int i = 0; i < kRows; i++) {
      if (cell_distances[i] > radii[r]) continue;  // not scanned
      if (filter.Matches(keys[i], values[i])) {
        deliveries[i]++;
        if (first_round[i] < 0) first_round[i] = r;
      }
    }
    previous = std::move(windows);
  }

  size_t late = 0, beyond = 0;
  for (int i = 0; i < kRows; i++) {
    if (cell_distances[i] <= radii.back()) {
      EXPECT_EQ(deliveries[i], 1) << "row " << i;
      // Delivered in a round after its lower bound fell inside the radius.
      if (first_round[i] > 0 && lower_bounds[i] <= radii[first_round[i] - 1]) {
        late++;
      }
    } else {
      EXPECT_EQ(deliveries[i], 0) << "row " << i;
      beyond++;
    }
    if (lower_bounds[i] == 0 && cell_distances[i] <= radii[0]) {
      EXPECT_EQ(first_round[i], 0) << "row " << i;
    }
  }
  // The sample covers late rows and both sides of the last radius.
  EXPECT_GT(late, 0u);
  EXPECT_GT(beyond, 0u);
  EXPECT_LT(beyond, static_cast<size_t>(kRows));
}

// ---------------------------------------------------------------------------
// IndexCache

TEST(IndexCacheTest, PutAndGetElement) {
  cache::RedisLikeStore redis;
  IndexCache cache(&redis, 16);
  cache.PutElement(42, {{0b101, 0}, {0b110, 1}, {0b011, 2}});
  auto element = cache.GetElement(42);
  ASSERT_EQ(element->shapes.size(), 3u);
  EXPECT_EQ(element->FinalCodeOf(0b101), 0u);
  EXPECT_EQ(element->FinalCodeOf(0b110), 1u);
  EXPECT_EQ(element->FinalCodeOf(0b111), UINT32_MAX);
  // Missing elements yield an empty map, not null.
  EXPECT_TRUE(cache.GetElement(999)->shapes.empty());
}

TEST(IndexCacheTest, SurvivesLFUEvictionViaRedis) {
  cache::RedisLikeStore redis;
  IndexCache cache(&redis, 2);  // tiny LFU
  for (uint64_t e = 0; e < 10; e++) {
    cache.PutElement(e, {{static_cast<uint32_t>(e + 1), 0}});
  }
  // Everything is still reachable: evicted entries reload from Redis.
  for (uint64_t e = 0; e < 10; e++) {
    auto element = cache.GetElement(e);
    ASSERT_EQ(element->shapes.size(), 1u) << e;
    EXPECT_EQ(element->shapes[0].first, e + 1);
  }
  EXPECT_GT(cache.redis_loads(), 0u);
}

TEST(IndexCacheTest, AddShapeUpdatesResidentEntry) {
  cache::RedisLikeStore redis;
  IndexCache cache(&redis, 8);
  cache.PutElement(7, {{0b1, 0}});
  cache.AddShape(7, 0b10, 1);
  auto element = cache.GetElement(7);
  EXPECT_EQ(element->FinalCodeOf(0b10), 1u);
  EXPECT_EQ(element->shapes.size(), 2u);
}

TEST(IndexCacheTest, CatalogViewSharesShapesAndTracksOccupancy) {
  cache::RedisLikeStore redis;
  IndexCache cache(&redis, 8);
  EXPECT_EQ(cache.NextOccupied(0), UINT64_MAX);
  cache.PutElement(3, {{0b11, 0}, {0b101, 1}});
  cache.AddShape(40, 0b1, 0);
  EXPECT_EQ(cache.occupied_elements(), 2u);
  EXPECT_GT(cache.occupancy_bytes(), 0u);
  EXPECT_EQ(cache.NextOccupied(0), 3u);
  EXPECT_EQ(cache.NextOccupied(3), 3u);
  EXPECT_EQ(cache.NextOccupied(4), 40u);
  EXPECT_EQ(cache.NextOccupied(41), UINT64_MAX);

  // The view hands out the cached list itself, not a copy.
  const auto shapes = cache.Shapes(3);
  ASSERT_EQ(shapes->size(), 2u);
  EXPECT_EQ((*shapes)[0].second, 0u);
  EXPECT_EQ((*shapes)[1].second, 1u);
  EXPECT_EQ(shapes.get(), &cache.GetElement(3)->shapes);

  // Unoccupied elements are answered without a Redis round trip.
  const uint64_t loads = cache.redis_loads();
  EXPECT_TRUE(cache.GetElement(5)->shapes.empty());
  EXPECT_EQ(cache.redis_loads(), loads);
}

TEST(BufferShapeCacheTest, CountsDistinctShapesAndDrains) {
  BufferShapeCache buffer;
  EXPECT_EQ(buffer.Add(1, 0b01), 1u);
  EXPECT_EQ(buffer.Add(1, 0b01), 1u);  // duplicate
  EXPECT_EQ(buffer.Add(1, 0b10), 2u);
  EXPECT_EQ(buffer.Add(2, 0b01), 3u);
  EXPECT_TRUE(buffer.Contains(1, 0b10));
  EXPECT_FALSE(buffer.Contains(2, 0b10));

  const auto drained = buffer.Drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.Contains(1, 0b01));
}

}  // namespace
}  // namespace tman::core
