#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/coding.h"
#include "common/random.h"
#include "core/filters.h"
#include "core/index_cache.h"
#include "core/record.h"
#include "core/rowkey.h"
#include "index/quadkey.h"
#include "index/shape_encoding.h"
#include "index/tshape_index.h"
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
  ASSERT_TRUE(geo::DecodeDPFeatures(header.dp_blob.data(),
                                    header.dp_blob.size(), &features));
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
      const std::string tid = std::string("t").append(std::to_string(i));
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

// A seeded trip of 1 to 60 points on a 1/64 grid, one point in ten trips
// and two in another ten, so rects built from its coordinates touch its
// vertices and DP boxes exactly.
std::vector<geo::TimedPoint> GridTrip(Random* rnd) {
  const uint64_t kind = rnd->Uniform(10);
  const size_t n = kind == 0 ? 1 : kind == 1 ? 2 : 3 + rnd->Uniform(58);
  double x = static_cast<double>(rnd->Uniform(64)) / 64;
  double y = static_cast<double>(rnd->Uniform(64)) / 64;
  std::vector<geo::TimedPoint> points;
  for (size_t i = 0; i < n; i++) {
    points.push_back(
        geo::TimedPoint{x, y, 1000 + 30 * static_cast<int64_t>(i)});
    x += (static_cast<double>(rnd->Uniform(9)) - 4) / 64;
    y += (static_cast<double>(rnd->Uniform(9)) - 4) / 64;
  }
  return points;
}

// A rect of one of six kinds around a trip with DP features `features`:
// random near its MBR; touching a feature box's edge from outside;
// cornered at a vertex; inside a feature box; a zero-width line through a
// vertex; or small and inside the MBR.
geo::MBR RectNear(const std::vector<geo::TimedPoint>& points,
                  const geo::DPFeatures& features, uint64_t kind,
                  Random* rnd) {
  const geo::MBR& box =
      features.features[rnd->Uniform(features.features.size())].box;
  const geo::TimedPoint& v = points[rnd->Uniform(points.size())];
  const double w = static_cast<double>(rnd->Uniform(16)) / 64;
  const double h = static_cast<double>(rnd->Uniform(16)) / 64;
  switch (kind) {
    case 0: {
      const geo::MBR near = features.mbr.Expanded(0.1);
      const double cx = rnd->UniformDouble(near.min_x, near.max_x);
      const double cy = rnd->UniformDouble(near.min_y, near.max_y);
      return geo::MBR{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
    }
    case 1: {
      // The rect's y (or x) range starts anywhere from one h below the box
      // to its top, so it often spans the vertex that makes the edge.
      const double lo_y = rnd->UniformDouble(box.min_y - h, box.max_y);
      const double lo_x = rnd->UniformDouble(box.min_x - w, box.max_x);
      switch (rnd->Uniform(4)) {
        case 0:
          return geo::MBR{box.max_x, lo_y, box.max_x + w, lo_y + h};
        case 1:
          return geo::MBR{box.min_x - w, lo_y, box.min_x, lo_y + h};
        case 2:
          return geo::MBR{lo_x, box.max_y, lo_x + w, box.max_y + h};
        default:
          return geo::MBR{lo_x, box.min_y - h, lo_x + w, box.min_y};
      }
    }
    case 2: {
      const double x0 = rnd->Bernoulli(0.5) ? v.x : v.x - w;
      const double y0 = rnd->Bernoulli(0.5) ? v.y : v.y - h;
      return geo::MBR{x0, y0, x0 + w, y0 + h};
    }
    case 3: {
      const double x0 = rnd->UniformDouble(box.min_x, box.max_x);
      const double y0 = rnd->UniformDouble(box.min_y, box.max_y);
      return geo::MBR{x0, y0, rnd->UniformDouble(x0, box.max_x),
                      rnd->UniformDouble(y0, box.max_y)};
    }
    case 4:
      return rnd->Bernoulli(0.5) ? geo::MBR{v.x, v.y - h, v.x, v.y + h}
                                 : geo::MBR{v.x - w, v.y, v.x + w, v.y};
    default: {
      const geo::MBR& mbr = features.mbr;
      const double x0 = rnd->UniformDouble(mbr.min_x, mbr.max_x);
      const double y0 = rnd->UniformDouble(mbr.min_y, mbr.max_y);
      return geo::MBR{x0, y0, x0 + w / 4, y0 + h / 4};
    }
  }
}

// The record `value` with its DP-feature column (the last field) replaced.
std::string WithFeatureColumn(const std::string& value,
                              const std::string& column) {
  RecordHeader header;
  EXPECT_TRUE(DecodeRecordHeader(value, &header));
  const size_t at =
      static_cast<size_t>(header.dp_blob.data() - value.data()) -
      VarintLength(header.dp_blob.size());
  std::string out = value.substr(0, at);
  PutLengthPrefixedSlice(&out, column);
  return out;
}

// A feature column that DecodeDPFeatures rejects: truncated, or claiming
// one feature more than it holds, or 0xFFFFFFF0 of them.
std::string UndecodableColumn(const Slice& column, Random* rnd) {
  switch (rnd->Uniform(3)) {
    case 0:
      return std::string(column.data(), rnd->Uniform(column.size()));
    default: {
      Slice body(column.data() + 32, column.size() - 32);
      uint32_t count = 0;
      EXPECT_TRUE(GetVarint32(&body, &count));
      std::string out(column.data(), 32);
      PutVarint32(&out, rnd->Bernoulli(0.5) ? count + 1 : 0xFFFFFFF0u);
      out.append(body.data(), body.size());
      return out;
    }
  }
}

// The three stages of SpatialRangeFilter (header MBR, DP boxes, streamed
// lon/lat) give the exact answer on every seeded (trip, rect) pair,
// including one- and two-point trips, rects that touch a DP box or a vertex
// and rects inside one box, and rows whose feature column does not decode,
// which fall through to the stream.
TEST(FiltersTest, SpatialRangeFilterMatchesExactPolylineTest) {
  Random rnd(20261019);
  constexpr int kTrips = 1200;
  constexpr int kRectsPerTrip = 6;
  int pairs = 0, box_decided = 0, streamed_hits = 0, streamed_misses = 0,
      undecodable = 0;
  for (int trip = 0; trip < kTrips; trip++) {
    traj::Trajectory t;
    t.points = GridTrip(&rnd);
    const size_t max_features = size_t{1} << rnd.Uniform(5);  // 1 .. 16
    std::string value;
    ASSERT_TRUE(EncodeRecord(t, max_features, &value));
    const geo::DPFeatures features =
        geo::ExtractDPFeatures(t.points, max_features);
    RecordHeader header;
    ASSERT_TRUE(DecodeRecordHeader(value, &header));
    const bool corrupt = trip % 8 == 7;
    if (corrupt) {
      value = WithFeatureColumn(value, UndecodableColumn(header.dp_blob, &rnd));
      ASSERT_TRUE(DecodeRecordHeader(value, &header));
      geo::DPFeatures rejected;
      ASSERT_FALSE(geo::DecodeDPFeatures(header.dp_blob.data(),
                                         header.dp_blob.size(), &rejected));
    }
    std::vector<geo::TimedPoint> decoded;
    ASSERT_TRUE(DecodeRecordPoints(header, &decoded));

    for (int r = 0; r < kRectsPerTrip; r++) {
      const geo::MBR rect = RectNear(t.points, features, r, &rnd);
      const bool expected = header.mbr.Intersects(rect) &&
                            geo::PolylineIntersectsRect(decoded, rect);
      ASSERT_EQ(SpatialRangeFilter(rect).Matches("k", value), expected)
          << "trip " << trip << " rect kind " << r << " [" << rect.min_x
          << ", " << rect.min_y << ", " << rect.max_x << ", " << rect.max_y
          << "]";
      pairs++;
      if (!header.mbr.Intersects(rect) || rect.Contains(header.mbr)) continue;
      undecodable += corrupt;
      if (geo::DPBoxesMissRect(header.dp_blob.data(), header.dp_blob.size(),
                               static_cast<uint32_t>(decoded.size()), rect)) {
        ASSERT_FALSE(corrupt);
        box_decided++;
      } else {
        (expected ? streamed_hits : streamed_misses)++;
      }
    }
  }
  EXPECT_GE(pairs, 5000);
  // Every stage decides a share of the pairs: the DP boxes more than one
  // in twenty of the borderline misses (seed 20261019: 182 of 1,694).
  EXPECT_GT(box_decided, (box_decided + streamed_misses) / 20);
  EXPECT_GT(streamed_hits, 0);
  EXPECT_GT(streamed_misses, 0);
  EXPECT_GT(undecodable, 0);
}

// One SpatialRangeFilter serves every region task of a scan at once, so the
// state of its borderline stages lives inside each call.
TEST(FiltersTest, SpatialRangeFilterIsSharedAcrossThreads) {
  Random rnd(23);
  const geo::MBR rect{0.3, 0.3, 0.6, 0.6};
  std::vector<std::string> values;
  std::vector<bool> expected;
  int borderline = 0;
  for (int i = 0; i < 400; i++) {
    traj::Trajectory t;
    t.points = GridTrip(&rnd);
    values.push_back(EncodeFor(t));
    const geo::MBR mbr = geo::ComputeMBR(t.points);
    borderline += mbr.Intersects(rect) && !rect.Contains(mbr);
    expected.push_back(mbr.Intersects(rect) &&
                       geo::PolylineIntersectsRect(t.points, rect));
  }
  ASSERT_GT(borderline, 40);
  const SpatialRangeFilter filter(rect);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; w++) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 3; rep++) {
        for (size_t i = 0; i < values.size(); i++) {
          if (filter.Matches("k", values[i]) != expected[i]) mismatches++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
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
// "cell distance". As with TShape's coverage plan, that distance misses the
// filter's bound (geo::HeaderLowerBound) both ways: a third of the
// rows enter the windows rounds after their bound fell inside the radius,
// and must be delivered then; a third enter them before, and the filter
// holds them back until the radius reaches their bound. Coordinates and
// radii are dyadic, so a row moved from the query by exactly a radius has
// exactly that bound, and must be delivered in that radius's round.
TEST(FiltersTest, MBRDistanceRoundsDeliverEachRowOnce) {
  const geo::MBR query{116.40625, 39.90625, 116.4140625, 39.9140625};
  constexpr double kR0 = 1.0 / 512;
  constexpr int kRounds = 8;
  std::vector<double> radii;
  for (int i = 0; i < kRounds; i++) radii.push_back(kR0 * (1 << i));

  Random rng(20261019);
  constexpr int kRows = 2000;
  std::vector<std::string> keys, values;
  std::vector<double> lower_bounds, cell_distances;
  std::vector<int> exact_round(kRows, -1);
  for (int i = 0; i < kRows; i++) {
    // Random MBRs around the query, from overlapping it to well beyond the
    // last radius. Every tenth one is the query's own MBR (bound 0), and
    // every tenth from the fifth is the query's moved east by a radius.
    const double cx = rng.UniformDouble(115.9, 116.9);
    const double cy = rng.UniformDouble(39.4, 40.4);
    traj::Trajectory t;
    t.oid = "o" + std::to_string(i);
    t.tid = t.oid + "-t";
    t.points = {geo::TimedPoint{cx, cy, 1000},
                geo::TimedPoint{cx + rng.UniformDouble(0, 0.01),
                                cy + rng.UniformDouble(0, 0.01), 1030}};
    double shift = 0;
    if (i % 10 == 5) {
      exact_round[i] = (i / 10) % kRounds;
      shift = radii[exact_round[i]];
    }
    if (i % 10 == 0 || i % 10 == 5) {
      t.points = {geo::TimedPoint{query.min_x + shift, query.min_y, 1000},
                  geo::TimedPoint{query.max_x + shift, query.max_y, 1030}};
    }
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    keys.push_back(key);
    values.push_back(EncodeFor(t));
    RecordHeader header;
    ASSERT_TRUE(DecodeRecordHeader(values.back(), &header));
    lower_bounds.push_back(geo::HeaderLowerBound(header.mbr, query));
    const double miss = exact_round[i] >= 0 ? 0 : rng.UniformDouble(0, 0.05);
    cell_distances.push_back(
        i % 3 == 0   ? lower_bounds.back() + miss
        : i % 3 == 1 ? std::max(0.0, lower_bounds.back() - miss)
                     : lower_bounds.back());
    if (exact_round[i] >= 0) {
      ASSERT_EQ(lower_bounds.back(), shift) << "row " << i;
    }
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

  size_t late = 0, early = 0, beyond = 0, first_round_zero = 0, exact = 0;
  for (int i = 0; i < kRows; i++) {
    if (cell_distances[i] <= radii.back() &&
        lower_bounds[i] <= radii.back()) {
      EXPECT_EQ(deliveries[i], 1) << "row " << i;
      // Delivered in a round after its bound fell inside the radius.
      if (first_round[i] > 0 && lower_bounds[i] <= radii[first_round[i] - 1]) {
        late++;
      }
      // Delivered in a round after it entered the windows.
      if (first_round[i] > 0 &&
          cell_distances[i] <= radii[first_round[i] - 1]) {
        early++;
      }
    } else {
      EXPECT_EQ(deliveries[i], 0) << "row " << i;
      beyond++;
    }
    if (lower_bounds[i] == 0 && cell_distances[i] <= radii[0]) {
      EXPECT_EQ(first_round[i], 0) << "row " << i;
      first_round_zero++;
    }
    if (exact_round[i] >= 0) {
      EXPECT_EQ(first_round[i], exact_round[i]) << "row " << i;
      exact++;
    }
  }
  // The sample covers late and early rows, both sides of the last radius,
  // rows at bound 0 in round 0's windows, and rows at every radius.
  EXPECT_GT(late, 0u);
  EXPECT_GT(early, 0u);
  EXPECT_GT(first_round_zero, 0u);
  EXPECT_GE(exact, static_cast<size_t>(kRounds));
  EXPECT_GT(beyond, 0u);
  EXPECT_LT(beyond, static_cast<size_t>(kRows));
}

// ---------------------------------------------------------------------------
// IndexCache

// A meta table in a fresh temp dir, opened as TMan opens it.
class MetaTable {
 public:
  explicit MetaTable(const std::string& name)
      : cluster_(FreshDir(name), 1, kv::Options()) {
    EXPECT_TRUE(cluster_.CreateTable("meta", 1).ok());
  }

  cluster::ClusterTable* get() { return cluster_.GetTable("meta"); }

 private:
  static std::string FreshDir(const std::string& name) {
    const std::string dir =
        std::string(::testing::TempDir()) + "tman_catalog_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  cluster::Cluster cluster_;
};

// One PlaceShapes call with one request; returns its codes.
std::vector<uint32_t> Place(IndexCache* cache, uint64_t quad_code,
                            std::vector<uint32_t> bits) {
  std::vector<std::vector<uint32_t>> codes;
  const Status s =
      cache->PlaceShapes({ShapeRequest{quad_code, std::move(bits)}}, &codes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return s.ok() ? codes[0] : std::vector<uint32_t>();
}

TEST(IndexCacheTest, PlaceShapesSpreadsAFreshElement) {
  MetaTable meta("spread");
  IndexCache cache(meta.get(), 16, 9);
  ASSERT_TRUE(cache.Open().ok());
  const std::vector<uint32_t> codes = Place(&cache, 42, {0b101, 0b110, 0b011});
  EXPECT_EQ(codes, index::SpreadCodes(3, 512));
  EXPECT_EQ(codes, (std::vector<uint32_t>{84, 255, 426}));
  auto element = cache.GetElement(42);
  ASSERT_EQ(element->shapes.size(), 3u);
  EXPECT_EQ(element->FinalCodeOf(0b101), 84u);
  EXPECT_EQ(element->FinalCodeOf(0b110), 255u);
  EXPECT_EQ(element->FinalCodeOf(0b111), UINT32_MAX);
  EXPECT_EQ(cache.registered_shapes(), 3u);
  // Missing elements yield an empty map, not null.
  EXPECT_TRUE(cache.GetElement(999)->shapes.empty());
}

TEST(IndexCacheTest, SurvivesLFUEvictionViaMetaTable) {
  MetaTable meta("eviction");
  IndexCache cache(meta.get(), 2, 9);  // tiny LFU
  ASSERT_TRUE(cache.Open().ok());
  for (uint64_t e = 0; e < 10; e++) {
    Place(&cache, e, {static_cast<uint32_t>(e + 1)});
  }
  // Everything is still reachable: evicted entries reload from the meta
  // table.
  for (uint64_t e = 0; e < 10; e++) {
    auto element = cache.GetElement(e);
    ASSERT_EQ(element->shapes.size(), 1u) << e;
    EXPECT_EQ(element->shapes[0].first, e + 1);
    EXPECT_EQ(element->shapes[0].second, 255u);
  }
  EXPECT_GT(cache.catalog_loads(), 0u);
}

TEST(IndexCacheTest, PlacedCodesNeverChange) {
  MetaTable meta("never_change");
  IndexCache cache(meta.get(), 8, 9);
  ASSERT_TRUE(cache.Open().ok());
  const uint32_t first = Place(&cache, 7, {0b1})[0];
  const uint32_t second = Place(&cache, 7, {0b10})[0];
  EXPECT_NE(first, second);
  auto element = cache.GetElement(7);
  ASSERT_EQ(element->shapes.size(), 2u);
  EXPECT_EQ(element->FinalCodeOf(0b1), first);
  EXPECT_EQ(element->FinalCodeOf(0b10), second);
  EXPECT_LT(element->shapes[0].second, element->shapes[1].second);
  // Known bitmaps keep their codes and register nothing.
  EXPECT_EQ(Place(&cache, 7, {0b10, 0b1}),
            (std::vector<uint32_t>{second, first}));
  EXPECT_EQ(cache.registered_shapes(), 2u);
}

// One call handles its requests in order under the rules of one call per
// request, so it gives every bitmap the code a sequence of calls would.
TEST(IndexCacheTest, OneCallPlacesRequestsAsSeparateCallsWould) {
  const std::vector<ShapeRequest> requests = {
      {5, {0b1}}, {9, {0b11, 0b110, 0b1100}}, {5, {0b10}},
      {9, {0b1000, 0b11}}, {5, {0b1, 0b100}}};
  MetaTable one_meta("one_call");
  IndexCache one(one_meta.get(), 8, 9);
  ASSERT_TRUE(one.Open().ok());
  std::vector<std::vector<uint32_t>> codes;
  ASSERT_TRUE(one.PlaceShapes(requests, &codes).ok());

  MetaTable many_meta("many_calls");
  IndexCache many(many_meta.get(), 8, 9);
  ASSERT_TRUE(many.Open().ok());
  ASSERT_EQ(codes.size(), requests.size());
  for (size_t r = 0; r < requests.size(); r++) {
    EXPECT_EQ(codes[r], Place(&many, requests[r].quad_code, requests[r].bits))
        << "request " << r;
  }
  EXPECT_EQ(one.registered_shapes(), 7u);
  EXPECT_EQ(many.registered_shapes(), 7u);
  for (uint64_t e : {5u, 9u}) {
    EXPECT_EQ(one.GetElement(e)->shapes, many.GetElement(e)->shapes);
  }
}

// The meta table is the catalog's only store: a new cache over it sees
// every element and shape, each list in code order, and plans the same.
TEST(IndexCacheTest, OpenRebuildsTheCatalogFromTheMetaTable) {
  MetaTable meta("reopen");
  std::map<uint64_t, index::ShapeList> before;
  {
    IndexCache cache(meta.get(), 8, 9);
    ASSERT_TRUE(cache.Open().ok());
    EXPECT_EQ(cache.open_stats().elements, 0u);
    Place(&cache, 3, {0b11, 0b101});
    Place(&cache, 40, {0b1});
    Place(&cache, 3, {0b111});
    for (uint64_t e : {3u, 40u}) before[e] = cache.GetElement(e)->shapes;
  }
  // An LFU of one entry, so the lists keep loading from the meta table.
  IndexCache cache(meta.get(), 1, 9);
  ASSERT_TRUE(cache.Open().ok());
  EXPECT_EQ(cache.open_stats().elements, 2u);
  EXPECT_EQ(cache.open_stats().shapes, 4u);
  EXPECT_EQ(cache.occupied_elements(), 2u);
  EXPECT_EQ(cache.registered_shapes(), 4u);
  EXPECT_EQ(cache.NextOccupied(0), 3u);
  EXPECT_EQ(cache.NextOccupied(4), 40u);
  for (const auto& [e, shapes] : before) {
    EXPECT_EQ(cache.GetElement(e)->shapes, shapes) << "element " << e;
  }
  EXPECT_GT(cache.catalog_loads(), 0u);
  // A placement after the reopen keeps the stored codes.
  const std::vector<uint32_t> codes = Place(&cache, 3, {0b11, 0b1001});
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_EQ(codes[0], 127u);
  EXPECT_EQ(cache.GetElement(3)->shapes.size(), 4u);
  EXPECT_EQ(cache.registered_shapes(), 5u);
}

TEST(IndexCacheTest, CatalogViewSharesShapesAndTracksOccupancy) {
  MetaTable meta("view");
  IndexCache cache(meta.get(), 8, 9);
  ASSERT_TRUE(cache.Open().ok());
  EXPECT_EQ(cache.NextOccupied(0), UINT64_MAX);
  Place(&cache, 3, {0b11, 0b101});
  Place(&cache, 40, {0b1});
  EXPECT_EQ(cache.occupied_elements(), 2u);
  EXPECT_GT(cache.occupancy_bytes(), 0u);
  EXPECT_EQ(cache.NextOccupied(0), 3u);
  EXPECT_EQ(cache.NextOccupied(3), 3u);
  EXPECT_EQ(cache.NextOccupied(4), 40u);
  EXPECT_EQ(cache.NextOccupied(41), UINT64_MAX);

  // The view hands out the cached list itself, not a copy, sorted by code.
  const auto shapes = cache.Shapes(3);
  ASSERT_EQ(shapes->size(), 2u);
  EXPECT_EQ((*shapes)[0], std::make_pair(0b11u, 127u));
  EXPECT_EQ((*shapes)[1], std::make_pair(0b101u, 383u));
  EXPECT_EQ(shapes.get(), &cache.GetElement(3)->shapes);

  // Unoccupied elements are answered without reading the meta table.
  const uint64_t loads = cache.catalog_loads();
  EXPECT_TRUE(cache.GetElement(5)->shapes.empty());
  EXPECT_EQ(cache.catalog_loads(), loads);
}

// A 2x2 element has 16 codes and 15 possible bitmaps. Filling it, first by
// a spread batch and then one shape at a time until the gaps run out,
// still gives every bitmap one distinct code, and the planner reads
// exactly the shapes that touch each query.
TEST(IndexCacheTest, FullTwoByTwoElementGetsDistinctCodesAndExactRanges) {
  const index::TShapeIndex idx(index::TShapeConfig{2, 2, 8});
  MetaTable meta("two_by_two");
  IndexCache cache(meta.get(), 1, idx.config().shape_bits());
  ASSERT_TRUE(cache.Open().ok());
  const index::QuadCell anchor = index::CellContaining(0.3, 0.3, 4);
  const uint64_t code = index::QuadCode(anchor, 8);

  std::vector<uint32_t> codes = Place(&cache, code, {0b0011, 0b0111, 0b1111, 0b0101});
  for (uint32_t bits : {0b0001u, 0b1000u, 0b1110u, 0b0010u, 0b1001u, 0b0110u,
                        0b1100u, 0b0100u, 0b1011u, 0b1010u, 0b1101u}) {
    codes.push_back(Place(&cache, code, {bits})[0]);
  }
  const auto shapes = cache.Shapes(code);
  ASSERT_EQ(shapes->size(), 15u);
  std::set<uint32_t> bitmaps;
  for (size_t i = 0; i < shapes->size(); i++) {
    bitmaps.insert((*shapes)[i].first);
    EXPECT_LT((*shapes)[i].second, 16u);
    if (i > 0) {
      EXPECT_LT((*shapes)[i - 1].second, (*shapes)[i].second);
    }
  }
  EXPECT_EQ(bitmaps.size(), 15u);
  EXPECT_EQ(std::set<uint32_t>(codes.begin(), codes.end()).size(), 15u);

  Random rnd(5);
  const geo::MBR element = idx.EnlargedRect(anchor);
  for (int q = 0; q < 200; q++) {
    const double x = rnd.UniformDouble(element.min_x - 0.05, element.max_x);
    const double y = rnd.UniformDouble(element.min_y - 0.05, element.max_y);
    const geo::MBR query{x, y, x + rnd.UniformDouble(0.001, 0.1),
                         y + rnd.UniformDouble(0.001, 0.1)};
    const auto ranges = idx.QueryRanges(query, &cache);
    const bool whole = query.Contains(element);
    for (const auto& [bits, final_code] : *shapes) {
      const uint64_t v = idx.IndexValue(code, final_code);
      const bool read = std::any_of(ranges.begin(), ranges.end(),
                                    [v](const index::ValueRange& r) {
                                      return r.lo <= v && v <= r.hi;
                                    });
      EXPECT_EQ(read, whole || idx.ShapeIntersects(anchor, bits, query))
          << "query " << q << " shape " << bits;
    }
  }
}

}  // namespace
}  // namespace tman::core
