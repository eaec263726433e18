#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/random.h"
#include "core/record.h"
#include "core/rowkey.h"
#include "core/tman.h"
#include "geo/similarity.h"
#include "obs/metrics.h"
#include "traj/generator.h"

namespace tman::core {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_core_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TManOptions SmallOptions(const traj::DatasetSpec& spec) {
  TManOptions options;
  options.bounds = spec.bounds;
  options.tr.origin = 0;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.xzt.origin = 0;
  options.tshape.max_resolution = 15;
  options.num_shards = 4;
  options.num_servers = 3;
  options.genetic.generations = 10;  // keep tests fast
  options.kv.write_buffer_size = 256 * 1024;
  return options;
}

// Shared fixture: one loaded TMan instance + the raw data for brute force.
class TManQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new traj::DatasetSpec(traj::TDriveLikeSpec());
    data_ = new std::vector<traj::Trajectory>(traj::Generate(*spec_, 400, 99));
    data_->push_back(GridProbe());
    data_->back().tid = "grid-copy";
    for (auto& p : data_->back().points) p.x += kGridShift;
    tman_ = new std::unique_ptr<TMan>;
    TManOptions options = SmallOptions(*spec_);
    ASSERT_TRUE(TMan::Open(options, TestDir("query"), tman_).ok());
    ASSERT_TRUE((*tman_)->BulkLoad(*data_).ok());
    ASSERT_TRUE((*tman_)->Flush().ok());
  }

  static void TearDownTestSuite() {
    delete tman_;
    delete data_;
    delete spec_;
    tman_ = nullptr;
    data_ = nullptr;
    spec_ = nullptr;
  }

  // A probe on a 2^-12 degree grid (trip 7's path, rounded). The fixture
  // stores a copy of it moved east by kGridShift, so every coordinate
  // difference is exact and the copy lies at exactly kGridShift from the
  // probe under Fréchet and Hausdorff.
  static constexpr double kGridShift = 1.0 / 64;
  static traj::Trajectory GridProbe() {
    traj::Trajectory probe = (*data_)[7];
    probe.oid = "grid";
    probe.tid = "grid-probe";
    for (auto& p : probe.points) {
      p.x = std::round(p.x * 4096) / 4096;
      p.y = std::round(p.y * 4096) / 4096;
    }
    return probe;
  }

  static std::set<std::string> Tids(const std::vector<traj::Trajectory>& v) {
    std::set<std::string> tids;
    for (const auto& t : v) tids.insert(t.tid);
    return tids;
  }

  static traj::DatasetSpec* spec_;
  static std::vector<traj::Trajectory>* data_;
  static std::unique_ptr<TMan>* tman_;
};

traj::DatasetSpec* TManQueryTest::spec_ = nullptr;
std::vector<traj::Trajectory>* TManQueryTest::data_ = nullptr;
std::unique_ptr<TMan>* TManQueryTest::tman_ = nullptr;

TEST_F(TManQueryTest, TemporalRangeQueryMatchesBruteForce) {
  const auto windows = traj::RandomTimeWindows(*spec_, 10, 6 * 3600, 5);
  for (const auto& w : windows) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE(
        (*tman_)->TemporalRangeQuery(w.ts, w.te, &results, &stats).ok());

    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.IntersectsTimeRange(w.ts, w.te)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected);
    EXPECT_GE(stats.candidates, results.size());
  }
}

TEST_F(TManQueryTest, SpatialRangeQueryMatchesBruteForce) {
  const auto windows = traj::RandomSpaceWindows(*spec_, 10, 3000, 5);
  for (const auto& w : windows) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE((*tman_)->SpatialRangeQuery(w.rect, &results, &stats).ok());

    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (geo::PolylineIntersectsRect(t.points, w.rect)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected);
  }
}

TEST_F(TManQueryTest, SpatioTemporalQueryMatchesBruteForce) {
  const auto tws = traj::RandomTimeWindows(*spec_, 6, 12 * 3600, 8);
  const auto sws = traj::RandomSpaceWindows(*spec_, 6, 5000, 8);
  for (size_t i = 0; i < tws.size(); i++) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->SpatioTemporalRangeQuery(sws[i].rect, tws[i].ts,
                                               tws[i].te, &results, &stats)
                    .ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.IntersectsTimeRange(tws[i].ts, tws[i].te) &&
          geo::PolylineIntersectsRect(t.points, sws[i].rect)) {
        expected.insert(t.tid);
      }
    }
    EXPECT_EQ(Tids(results), expected) << "window " << i;
  }
}

TEST_F(TManQueryTest, IDTemporalQueryMatchesBruteForce) {
  // Pick a few objects that exist in the data.
  std::set<std::string> oids;
  for (const auto& t : *data_) {
    oids.insert(t.oid);
    if (oids.size() >= 5) break;
  }
  const int64_t ts = spec_->t0;
  const int64_t te = spec_->t0 + spec_->horizon_seconds / 2;
  for (const auto& oid : oids) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE((*tman_)->IDTemporalQuery(oid, ts, te, &results, &stats).ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.oid == oid && t.IntersectsTimeRange(ts, te)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected) << oid;
    for (const auto& t : results) EXPECT_EQ(t.oid, oid);
  }
}

// Every measure, several probes (stored trips, jittered copies and the
// grid probe) and thresholds: a fixed one and two stored trips' exact
// distances, so a candidate lies at exactly the threshold.
TEST_F(TManQueryTest, ThresholdSimilarityMatchesBruteForce) {
  Random rnd(157);
  std::vector<traj::Trajectory> probes = {(*data_)[7], (*data_)[50],
                                          GridProbe()};
  for (const size_t i : {size_t{120}, size_t{233}}) {
    traj::Trajectory probe = (*data_)[i];
    probe.tid = "jittered-" + std::to_string(i);
    for (auto& p : probe.points) {
      p.x += rnd.UniformDouble(-0.003, 0.003);
      p.y += rnd.UniformDouble(-0.003, 0.003);
    }
    probes.push_back(std::move(probe));
  }
  size_t matches = 0;
  for (const auto measure :
       {geo::SimilarityMeasure::kFrechet, geo::SimilarityMeasure::kDTW,
        geo::SimilarityMeasure::kHausdorff}) {
    for (const traj::Trajectory& probe : probes) {
      std::vector<double> distances;
      for (const auto& t : *data_) {
        distances.push_back(
            geo::ExactDistance(measure, probe.points, t.points));
      }
      std::vector<double> sorted = distances;
      std::sort(sorted.begin(), sorted.end());
      for (const double threshold : {0.02, sorted[2], sorted[6]}) {
        SCOPED_TRACE(probe.tid + " measure " +
                     std::to_string(static_cast<int>(measure)) +
                     " threshold " + std::to_string(threshold));
        std::vector<traj::Trajectory> results;
        QueryStats stats;
        ASSERT_TRUE((*tman_)
                        ->ThresholdSimilarityQuery(probe, measure, threshold,
                                                   &results, &stats)
                        .ok());
        std::set<std::string> expected;
        for (size_t i = 0; i < data_->size(); i++) {
          if (distances[i] <= threshold) expected.insert((*data_)[i].tid);
        }
        EXPECT_EQ(Tids(results), expected);
        matches += expected.size();
        // Pruning must have avoided computing every exact distance (a DTW
        // sum over a whole trip can reach degrees, which prunes nothing).
        if (threshold == 0.02) {
          EXPECT_LT(stats.exact_distance_computations, data_->size());
        }
      }
    }
  }
  EXPECT_GT(matches, 60u);

  // The stored copy at exactly kGridShift along x.
  const traj::Trajectory grid = GridProbe();
  for (const auto measure : {geo::SimilarityMeasure::kFrechet,
                             geo::SimilarityMeasure::kHausdorff}) {
    ASSERT_EQ(geo::ExactDistance(measure, grid.points, data_->back().points),
              kGridShift);
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE((*tman_)
                    ->ThresholdSimilarityQuery(grid, measure, kGridShift,
                                               &results)
                    .ok());
    EXPECT_EQ(Tids(results).count("grid-copy"), 1u)
        << "measure " << static_cast<int>(measure);
  }
}

TEST_F(TManQueryTest, TopKSimilarityMatchesBruteForce) {
  const traj::Trajectory& query = (*data_)[3];
  const size_t k = 5;
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->TopKSimilarityQuery(query, geo::SimilarityMeasure::kFrechet,
                                        k, &results, &stats)
                  .ok());
  ASSERT_EQ(results.size(), k);

  // Brute force: k smallest Fréchet distances (excluding the query itself).
  std::vector<std::pair<double, std::string>> all;
  for (const auto& t : *data_) {
    if (t.tid == query.tid) continue;
    all.emplace_back(geo::DiscreteFrechet(query.points, t.points), t.tid);
  }
  std::sort(all.begin(), all.end());
  // Distances (not necessarily identities, on ties) must match.
  for (size_t i = 0; i < k; i++) {
    const double got =
        geo::DiscreteFrechet(query.points, results[i].points);
    EXPECT_NEAR(got, all[i].first, 1e-12) << i;
  }
}

// Top-k across several regions and several expanding-radius rounds: probes
// moved out of the city need at least three rounds, so later rounds only
// see the ring of rows beyond the previous radius while the region tasks
// verify against one shared k-th distance.
TEST_F(TManQueryTest, TopKMatchesBruteForceAcrossRoundsAndRegions) {
  ASSERT_GE((*tman_)->primary_table()->num_shards(), 4);
  std::vector<traj::Trajectory> probes;
  const std::vector<std::pair<double, double>> shifts = {
      {-0.25, -0.2}, {0.25, 0.2}, {-0.25, 0.25}, {0.3, -0.2}};
  for (size_t i = 0; i < shifts.size(); i++) {
    traj::Trajectory probe = (*data_)[7 + 13 * i];
    probe.tid = "probe-" + std::to_string(i);
    for (auto& p : probe.points) {
      p.x += shifts[i].first;
      p.y += shifts[i].second;
    }
    probes.push_back(std::move(probe));
  }
  for (const auto measure :
       {geo::SimilarityMeasure::kFrechet, geo::SimilarityMeasure::kDTW,
        geo::SimilarityMeasure::kHausdorff}) {
    for (const traj::Trajectory& probe : probes) {
      std::vector<double> want;
      for (const auto& t : *data_) {
        want.push_back(geo::ExactDistance(measure, probe.points, t.points));
      }
      std::sort(want.begin(), want.end());
      for (const size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
        SCOPED_TRACE(probe.tid + " k=" + std::to_string(k) + " measure " +
                     std::to_string(static_cast<int>(measure)));
        std::vector<traj::Trajectory> results;
        QueryStats stats;
        QueryOptions qopts;
        qopts.trace = true;
        ASSERT_TRUE((*tman_)
                        ->TopKSimilarityQuery(probe, measure, k, &results,
                                              &stats, qopts)
                        .ok());
        ASSERT_EQ(results.size(), k);
        std::set<std::string> tids;
        for (size_t i = 0; i < k; i++) {
          EXPECT_TRUE(tids.insert(results[i].tid).second)
              << "tid " << results[i].tid << " twice";
          EXPECT_EQ(geo::ExactDistance(measure, probe.points,
                                       results[i].points),
                    want[i])
              << "rank " << i;
        }
        ASSERT_NE(stats.trace, nullptr);
        size_t rounds = 0;
        for (const auto& child : stats.trace->children()) {
          if (child->name().rfind("round ", 0) == 0) rounds++;
        }
        EXPECT_GE(rounds, 3u);
      }
    }
  }
}

TEST_F(TManQueryTest, StatsArepopulated) {
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  const auto w = traj::RandomTimeWindows(*spec_, 1, 3600, 77)[0];
  ASSERT_TRUE((*tman_)->TemporalRangeQuery(w.ts, w.te, &results, &stats).ok());
  EXPECT_GT(stats.windows, 0u);
  EXPECT_FALSE(stats.plan.empty());
}

// ---------------------------------------------------------------------------
// Configuration matrix: every index combination answers queries correctly.

struct ConfigCase {
  const char* name;
  SpatialIndexKind spatial;
  TemporalIndexKind temporal;
  PrimaryIndexKind primary;
  bool use_cache;
};

class TManConfigTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(TManConfigTest, QueriesMatchBruteForce) {
  const ConfigCase& c = GetParam();
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto data = traj::Generate(spec, 150, 31);

  TManOptions options = SmallOptions(spec);
  options.spatial = c.spatial;
  options.temporal = c.temporal;
  options.primary = c.primary;
  options.use_index_cache = c.use_cache;

  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir(std::string("cfg_") + c.name),
                         &tman)
                  .ok());
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  // TRQ.
  const auto tw = traj::RandomTimeWindows(spec, 4, 6 * 3600, 13);
  for (const auto& w : tw) {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->TemporalRangeQuery(w.ts, w.te, &results, nullptr).ok());
    std::set<std::string> expected, got;
    for (const auto& t : data) {
      if (t.IntersectsTimeRange(w.ts, w.te)) expected.insert(t.tid);
    }
    for (const auto& t : results) got.insert(t.tid);
    EXPECT_EQ(got, expected) << c.name;
  }

  // SRQ (only with a spatial primary).
  if (c.primary == PrimaryIndexKind::kSpatial) {
    const auto sw = traj::RandomSpaceWindows(spec, 4, 4000, 13);
    for (const auto& w : sw) {
      std::vector<traj::Trajectory> results;
      ASSERT_TRUE(tman->SpatialRangeQuery(w.rect, &results, nullptr).ok());
      std::set<std::string> expected, got;
      for (const auto& t : data) {
        if (geo::PolylineIntersectsRect(t.points, w.rect)) {
          expected.insert(t.tid);
        }
      }
      for (const auto& t : results) got.insert(t.tid);
      EXPECT_EQ(got, expected) << c.name;
    }
  }

  // STRQ works under all configurations.
  const auto w = traj::RandomTimeWindows(spec, 1, 24 * 3600, 17)[0];
  const auto s = traj::RandomSpaceWindows(spec, 1, 8000, 17)[0];
  std::vector<traj::Trajectory> results;
  ASSERT_TRUE(
      tman->SpatioTemporalRangeQuery(s.rect, w.ts, w.te, &results, nullptr)
          .ok());
  std::set<std::string> expected, got;
  for (const auto& t : data) {
    if (t.IntersectsTimeRange(w.ts, w.te) &&
        geo::PolylineIntersectsRect(t.points, s.rect)) {
      expected.insert(t.tid);
    }
  }
  for (const auto& t : results) got.insert(t.tid);
  EXPECT_EQ(got, expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TManConfigTest,
    ::testing::Values(
        ConfigCase{"tshape_tr_spatial", SpatialIndexKind::kTShape,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kSpatial, true},
        ConfigCase{"xz2_tr_spatial", SpatialIndexKind::kXZ2,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kSpatial, true},
        ConfigCase{"xzstar_tr_spatial", SpatialIndexKind::kXZStar,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kSpatial, true},
        ConfigCase{"tshape_xzt_spatial", SpatialIndexKind::kTShape,
                   TemporalIndexKind::kXZT, PrimaryIndexKind::kSpatial, true},
        ConfigCase{"tshape_tr_temporal", SpatialIndexKind::kTShape,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kTemporal, true},
        ConfigCase{"tshape_tr_st", SpatialIndexKind::kTShape,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kST, true},
        ConfigCase{"nocache", SpatialIndexKind::kTShape,
                   TemporalIndexKind::kTR, PrimaryIndexKind::kSpatial,
                   false}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Update path (§IV-C)

// Brute-force answers over `data`, for the checks below.
std::set<std::string> TidsWhere(
    const std::vector<traj::Trajectory>& data,
    const std::function<bool(const traj::Trajectory&)>& pred) {
  std::set<std::string> tids;
  for (const auto& t : data) {
    if (pred(t)) tids.insert(t.tid);
  }
  return tids;
}

std::set<std::string> TidsOf(const std::vector<traj::Trajectory>& v) {
  std::set<std::string> tids;
  for (const auto& t : v) tids.insert(t.tid);
  return tids;
}

void ExpectSpatialMatchesBruteForce(TMan* tman,
                                    const std::vector<traj::Trajectory>& data,
                                    const geo::MBR& rect) {
  std::vector<traj::Trajectory> results;
  ASSERT_TRUE(tman->SpatialRangeQuery(rect, &results, nullptr).ok());
  EXPECT_EQ(TidsOf(results), TidsWhere(data, [&](const traj::Trajectory& t) {
              return geo::PolylineIntersectsRect(t.points, rect);
            }));
}

void ExpectThresholdMatchesBruteForce(TMan* tman,
                                      const std::vector<traj::Trajectory>& data,
                                      const traj::Trajectory& query,
                                      double threshold) {
  std::vector<traj::Trajectory> results;
  ASSERT_TRUE(tman->ThresholdSimilarityQuery(query,
                                             geo::SimilarityMeasure::kFrechet,
                                             threshold, &results, nullptr)
                  .ok());
  EXPECT_EQ(TidsOf(results), TidsWhere(data, [&](const traj::Trajectory& t) {
              return geo::DiscreteFrechet(query.points, t.points) <= threshold;
            }))
      << query.tid;
}

// tid -> primary key of every row in the primary table.
std::map<std::string, std::string> PrimaryKeysByTid(TMan* tman) {
  const size_t value_bytes =
      tman->options().primary == PrimaryIndexKind::kST ? 16 : 8;
  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink sink(&rows);
  EXPECT_TRUE(tman->primary_table()
                  ->MultiScan({cluster::KeyRange{"", ""}}, nullptr, 0, &sink,
                              nullptr)
                  .ok());
  std::map<std::string, std::string> keys;
  for (const cluster::Row& row : rows) {
    keys[TidOfPrimaryKey(row.key, value_bytes).ToString()] = row.key;
  }
  return keys;
}

// All six queries and the three counts against brute force over `data`.
// Queries that need a spatial primary index must refuse other layouts.
void ExpectQueriesMatchBruteForce(TMan* tman, const traj::DatasetSpec& spec,
                                  const std::vector<traj::Trajectory>& data,
                                  const std::vector<traj::Trajectory>& probes) {
  const bool spatial = tman->options().primary == PrimaryIndexKind::kSpatial;
  const auto tws = traj::RandomTimeWindows(spec, 4, 12 * 3600, 4);
  const auto sws = traj::RandomSpaceWindows(spec, 4, 5000, 4);
  for (size_t i = 0; i < tws.size(); i++) {
    const int64_t ts = tws[i].ts;
    const int64_t te = tws[i].te;
    const geo::MBR& rect = sws[i].rect;
    const auto in_time = TidsWhere(data, [&](const traj::Trajectory& t) {
      return t.IntersectsTimeRange(ts, te);
    });
    const auto in_rect = TidsWhere(data, [&](const traj::Trajectory& t) {
      return geo::PolylineIntersectsRect(t.points, rect);
    });
    const auto in_both = TidsWhere(data, [&](const traj::Trajectory& t) {
      return t.IntersectsTimeRange(ts, te) &&
             geo::PolylineIntersectsRect(t.points, rect);
    });
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->TemporalRangeQuery(ts, te, &results).ok());
    EXPECT_EQ(TidsOf(results), in_time) << "TRQ " << i;
    results.clear();
    ASSERT_TRUE(tman->SpatioTemporalRangeQuery(rect, ts, te, &results).ok());
    EXPECT_EQ(TidsOf(results), in_both) << "STRQ " << i;
    uint64_t count = 0;
    ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &count).ok());
    EXPECT_EQ(count, in_time.size()) << "TRQ count " << i;
    ASSERT_TRUE(tman->SpatioTemporalRangeCount(rect, ts, te, &count).ok());
    EXPECT_EQ(count, in_both.size()) << "STRQ count " << i;
    results.clear();
    const Status srq = tman->SpatialRangeQuery(rect, &results);
    const Status srq_count = tman->SpatialRangeCount(rect, &count);
    if (!spatial) {
      EXPECT_EQ(srq.code(), Status::Code::kNotSupported);
      EXPECT_EQ(srq_count.code(), Status::Code::kNotSupported);
      continue;
    }
    ASSERT_TRUE(srq.ok());
    EXPECT_EQ(TidsOf(results), in_rect) << "SRQ " << i;
    ASSERT_TRUE(srq_count.ok());
    EXPECT_EQ(count, in_rect.size()) << "SRQ count " << i;
  }

  std::set<std::string> oids;
  for (const auto& p : probes) oids.insert(p.oid);
  const int64_t ts = spec.t0;
  const int64_t te = spec.t0 + spec.horizon_seconds;
  for (const std::string& oid : oids) {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->IDTemporalQuery(oid, ts, te, &results).ok());
    EXPECT_EQ(TidsOf(results),
              TidsWhere(data, [&](const traj::Trajectory& t) {
                return t.oid == oid && t.IntersectsTimeRange(ts, te);
              }))
        << oid;
  }

  for (const traj::Trajectory& probe : probes) {
    std::vector<traj::Trajectory> results;
    const Status topk = tman->TopKSimilarityQuery(
        probe, geo::SimilarityMeasure::kFrechet, 5, &results);
    if (!spatial) {
      EXPECT_EQ(topk.code(), Status::Code::kNotSupported);
      EXPECT_EQ(tman->ThresholdSimilarityQuery(
                        probe, geo::SimilarityMeasure::kFrechet, 0.02, &results)
                    .code(),
                Status::Code::kNotSupported);
      continue;
    }
    ASSERT_TRUE(topk.ok());
    ExpectThresholdMatchesBruteForce(tman, data, probe, 0.02);
    std::vector<double> want;
    for (const auto& t : data) {
      if (t.tid != probe.tid) {
        want.push_back(geo::DiscreteFrechet(probe.points, t.points));
      }
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(results.size(), 5u);
    std::vector<double> got;
    for (const auto& t : results) {
      got.push_back(geo::DiscreteFrechet(probe.points, t.points));
    }
    std::sort(got.begin(), got.end());
    for (size_t j = 0; j < got.size(); j++) {
      EXPECT_NEAR(got[j], want[j], 1e-12) << probe.tid << " rank " << j;
    }
  }
}

// Inserts give unseen shapes codes that never change, so every row keeps
// the key it was written under: bulk-loaded and earlier-inserted rows are
// never moved by later Inserts, in every primary layout and with the index
// cache on or off, and every query still matches brute force.
TEST(TManUpdateTest, InsertsMoveNoRowAndStayQueryable) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto initial = traj::Generate(spec, 100, 1);
  auto more = traj::Generate(spec, 300, 2);
  for (auto& t : more) t.tid += "-new";
  std::vector<traj::Trajectory> all_data = initial;
  all_data.insert(all_data.end(), more.begin(), more.end());
  const struct {
    PrimaryIndexKind primary;
    const char* name;
  } layouts[] = {{PrimaryIndexKind::kSpatial, "spatial"},
                 {PrimaryIndexKind::kST, "st"},
                 {PrimaryIndexKind::kTemporal, "temporal"}};
  for (const auto& layout : layouts) {
    for (const bool use_index_cache : {true, false}) {
      const std::string name = std::string(layout.name) +
                               (use_index_cache ? "_cache" : "_nocache");
      SCOPED_TRACE(name);
      TManOptions options = SmallOptions(spec);
      options.primary = layout.primary;
      options.use_index_cache = use_index_cache;
      std::unique_ptr<TMan> tman;
      ASSERT_TRUE(TMan::Open(options, TestDir("update_" + name), &tman).ok());
      ASSERT_TRUE(tman->BulkLoad(initial).ok());
      const size_t bulk_elements = tman->index_cache()->occupied_elements();

      std::map<std::string, std::string> keys = PrimaryKeysByTid(tman.get());
      ASSERT_EQ(keys.size(), initial.size());
      for (size_t off = 0; off < more.size(); off += 50) {
        std::vector<traj::Trajectory> batch(
            more.begin() + off,
            more.begin() + std::min(off + 50, more.size()));
        ASSERT_TRUE(tman->Insert(batch).ok());
        const std::map<std::string, std::string> now =
            PrimaryKeysByTid(tman.get());
        for (const auto& [tid, key] : keys) {
          const auto it = now.find(tid);
          ASSERT_NE(it, now.end()) << tid << " lost";
          EXPECT_EQ(it->second, key) << tid << " moved";
        }
        EXPECT_EQ(now.size(), keys.size() + batch.size());
        keys = now;
      }
      if (use_index_cache) {
        // Inserts landed in elements that were empty at BulkLoad, which the
        // planner must stop pruning.
        EXPECT_GT(tman->index_cache()->occupied_elements(), bulk_elements);
      }

      std::vector<traj::Trajectory> probes;
      for (size_t i = 0; i < all_data.size(); i += 80) {
        probes.push_back(all_data[i]);
      }
      ExpectQueriesMatchBruteForce(tman.get(), spec, all_data, probes);

      // DeleteTrajectory finds rows through the IDT table, bulk-loaded and
      // inserted alike.
      std::vector<traj::Trajectory> remaining;
      std::set<std::string> deleted;
      for (size_t i = 0; i < all_data.size(); i++) {
        if (i % 97 == 3) {
          ASSERT_TRUE(
              tman->DeleteTrajectory(all_data[i].oid, all_data[i].tid).ok());
          deleted.insert(all_data[i].tid);
        } else {
          remaining.push_back(all_data[i]);
        }
      }
      keys = PrimaryKeysByTid(tman.get());
      EXPECT_EQ(keys.size(), remaining.size());
      for (const std::string& tid : deleted) EXPECT_EQ(keys.count(tid), 0u);
      ExpectQueriesMatchBruteForce(tman.get(), spec, remaining, probes);
    }
  }
}

// ---------------------------------------------------------------------------
// BulkLoad keeps BatchPut's contract on any store: a region that holds no
// rows in the load's key range takes one SSTable, and one that does takes
// its rows as write batches.

// Rows in the primary table.
size_t PrimaryRowCount(TMan* tman) {
  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink sink(&rows);
  EXPECT_TRUE(tman->primary_table()
                  ->MultiScan({cluster::KeyRange{"", ""}}, nullptr, 0, &sink,
                              nullptr)
                  .ok());
  return rows.size();
}

std::vector<traj::Trajectory> EveryNth(const std::vector<traj::Trajectory>& v,
                                       size_t n) {
  std::vector<traj::Trajectory> out;
  for (size_t i = 0; i < v.size(); i += n) out.push_back(v[i]);
  return out;
}

// A second BulkLoad into a loaded store, and a BulkLoad after an Insert:
// both succeed, and all six queries and the three counts match brute force.
TEST(TManBulkLoadTest, LoadsIntoAStoreThatHoldsRows) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto first = traj::Generate(spec, 200, 41);
  auto second = traj::Generate(spec, 200, 42);
  for (auto& t : second) t.tid += "-second";
  std::vector<traj::Trajectory> all = first;
  all.insert(all.end(), second.begin(), second.end());
  for (const bool insert_first : {false, true}) {
    SCOPED_TRACE(insert_first ? "Insert, then BulkLoad" : "two BulkLoads");
    std::unique_ptr<TMan> tman;
    ASSERT_TRUE(TMan::Open(SmallOptions(spec),
                           TestDir(insert_first ? "bulk_after_insert"
                                                : "bulk_twice"),
                           &tman)
                    .ok());
    ASSERT_TRUE(
        (insert_first ? tman->Insert(first) : tman->BulkLoad(first)).ok());
    ASSERT_TRUE(tman->BulkLoad(second).ok());
    EXPECT_EQ(PrimaryRowCount(tman.get()), all.size());
    ExpectQueriesMatchBruteForce(tman.get(), spec, all, EveryNth(all, 60));
  }
}

// Batches that repeat trajectories (same oid and tid, so the same keys), on
// a fresh store and on a loaded one: one row per key, and every answer
// matches brute force over the distinct trajectories.
TEST(TManBulkLoadTest, RepeatedTrajectoryKeepsOneRowPerKey) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto first = traj::Generate(spec, 200, 43);
  auto second = traj::Generate(spec, 100, 44);
  for (auto& t : second) t.tid += "-second";
  std::vector<traj::Trajectory> all = first;
  all.insert(all.end(), second.begin(), second.end());
  // The first batch repeats some of its own trajectories; the second also
  // repeats some that the first loaded.
  std::vector<traj::Trajectory> batch = first;
  for (size_t i = 0; i < first.size(); i += 7) batch.push_back(first[i]);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(
      TMan::Open(SmallOptions(spec), TestDir("bulk_repeats"), &tman).ok());
  ASSERT_TRUE(tman->BulkLoad(batch).ok());
  EXPECT_EQ(PrimaryRowCount(tman.get()), first.size());
  ExpectQueriesMatchBruteForce(tman.get(), spec, first, EveryNth(first, 60));

  batch = second;
  for (size_t i = 0; i < second.size(); i += 5) batch.push_back(second[i]);
  for (size_t i = 0; i < first.size(); i += 11) batch.push_back(first[i]);
  ASSERT_TRUE(tman->BulkLoad(batch).ok());
  EXPECT_EQ(PrimaryRowCount(tman.get()), all.size());
  ExpectQueriesMatchBruteForce(tman.get(), spec, all, EveryNth(all, 60));
}

// Retention covers bulk-loaded rows. A file ingested at the last level is
// rewritten by no compaction, so the TTL filter would never see its rows;
// a store with retention writes the load's rows as batches instead, and
// Flush + CompactAll drop the trips already past retention.
TEST(TManBulkLoadTest, CompactAllDropsLoadedTripsPastRetention) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto data = traj::Generate(spec, 300, 45);
  std::vector<int64_t> ends;
  for (const auto& t : data) ends.push_back(t.end_time());
  std::sort(ends.begin(), ends.end());
  const int64_t cutoff = ends[ends.size() / 2];
  std::vector<traj::Trajectory> kept;
  for (const auto& t : data) {
    if (t.end_time() >= cutoff) kept.push_back(t);
  }
  ASSERT_LT(kept.size(), data.size());

  TManOptions options = SmallOptions(spec);
  options.retention_seconds = 3600;
  options.retention_clock = [cutoff] { return cutoff + 3600; };
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("bulk_retention"), &tman).ok());
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  ASSERT_TRUE(tman->Flush().ok());
  ASSERT_TRUE(tman->CompactAll().ok());
  EXPECT_EQ(PrimaryRowCount(tman.get()), kept.size());
  ExpectQueriesMatchBruteForce(tman.get(), spec, kept, EveryNth(kept, 40));
}

// Writers racing on the same few elements, with an index cache of one
// entry so elements keep being reloaded from the meta table between
// writes. Every trip brings a shape its element has not seen. Threads 0
// and 2 insert the same trips (under their own tids) in step, racing to
// register one bitmap; threads 1 and 3 insert, in step with them, other
// trips of the same elements, racing to pick codes next to it. Each
// element must list each bitmap once, under distinct codes, queries must
// find every row, and a reopened store must list the same shapes.
TEST(TManConcurrencyTest, ConcurrentInsertsGiveEachShapeOneCode) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  options.index_cache_capacity = 1;
  const std::string dir = TestDir("writers");
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());

  // Trips that walk a 3x3 element's cell centres from its lower-left
  // corner and reach its far column or row: each lands in that element
  // (resolution 10, which a trip that wide selects) with the walked cells
  // as its shape. Walk j belongs to element j % 16.
  const int r = 10;
  const double w = 1.0 / (1 << r);
  const index::QuadCell anchors[] = {
      {r, 300, 400}, {r, 301, 400}, {r, 302, 401}, {r, 700, 120},
      {r, 310, 400}, {r, 311, 400}, {r, 312, 401}, {r, 710, 120},
      {r, 320, 400}, {r, 321, 400}, {r, 322, 401}, {r, 720, 120},
      {r, 330, 400}, {r, 331, 400}, {r, 332, 401}, {r, 730, 120}};
  constexpr size_t kElements = std::size(anchors);
  constexpr size_t kShapesPerElement = 30;
  Random rnd(17);
  std::vector<std::vector<std::vector<std::pair<int, int>>>> paths(kElements);
  for (auto& element_paths : paths) {
    std::set<uint32_t> seen;
    for (int attempt = 0;
         attempt < 2000 && element_paths.size() < kShapesPerElement;
         attempt++) {
      std::vector<std::pair<int, int>> cells = {{0, 0}};
      uint32_t bits = 1;
      const int steps = 2 + static_cast<int>(rnd.Uniform(9));
      for (int i = 0; i < steps; i++) {
        auto [cx, cy] = cells.back();
        const int step = static_cast<int>(rnd.Uniform(4));
        cx = std::clamp(cx + (step == 0) - (step == 1), 0, 2);
        cy = std::clamp(cy + (step == 2) - (step == 3), 0, 2);
        cells.emplace_back(cx, cy);
        bits |= 1u << (cy * 3 + cx);
      }
      const bool wide = (bits & 0b100100100) != 0 || (bits & 0b111000000) != 0;
      if (wide && seen.insert(bits).second) element_paths.push_back(cells);
    }
    ASSERT_EQ(element_paths.size(), kShapesPerElement);
  }
  std::vector<traj::Trajectory> walks;
  for (size_t i = 0; i < kShapesPerElement; i++) {
    for (size_t e = 0; e < kElements; e++) {
      const index::QuadCell& anchor = anchors[e];
      traj::Trajectory t;
      t.oid = "walker" + std::to_string(walks.size() % 5);
      t.tid = "walk" + std::to_string(walks.size());
      const int64_t t0 = spec.t0 + 600 * static_cast<int64_t>(walks.size());
      auto add = [&](double nx, double ny) {
        t.points.push_back(geo::TimedPoint{
            spec.bounds.min_lon + nx * spec.bounds.width(),
            spec.bounds.min_lat + ny * spec.bounds.height(),
            t0 + 30 * static_cast<int64_t>(t.points.size())});
      };
      add((anchor.x + 0.05) * w, (anchor.y + 0.05) * w);
      for (const auto& [cx, cy] : paths[e][i]) {
        add((anchor.x + cx + 0.5) * w, (anchor.y + cy + 0.5) * w);
      }
      walks.push_back(std::move(t));
    }
  }

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int id = 0; id < kThreads; id++) {
    writers.emplace_back([&, id] {
      ready++;
      while (ready.load() < kThreads) std::this_thread::yield();
      const size_t offset = (id % 2) * kElements;
      for (size_t i = 0; i < walks.size(); i++) {
        traj::Trajectory t = walks[(i + offset) % walks.size()];
        t.tid.append("-").append(std::to_string(id));
        if (!tman->Insert({t}).ok()) failures++;
      }
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<traj::Trajectory> data;
  for (int id = 0; id < kThreads; id++) {
    for (traj::Trajectory t : walks) {
      t.tid += "-" + std::to_string(id);
      data.push_back(std::move(t));
    }
  }
  const index::TShapeIndex tshape(options.tshape);
  std::map<uint64_t, std::multiset<uint32_t>> want;
  for (const traj::Trajectory& t : walks) {
    std::vector<geo::TimedPoint> norm;
    for (const geo::TimedPoint& p : t.points) {
      const geo::Point np = spec.bounds.Normalize(geo::Point{p.x, p.y});
      norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
    }
    const index::TShapeEncoding enc = tshape.Encode(norm);
    want[enc.quad_code].insert(enc.shape);
  }
  ASSERT_EQ(want.size(), kElements);
  for (const auto& [quad_code, bitmaps] : want) {
    ASSERT_EQ(bitmaps.size(), kShapesPerElement);
    const auto element = tman->index_cache()->GetElement(quad_code);
    std::multiset<uint32_t> listed;
    std::set<uint32_t> codes;
    for (const auto& [bits, code] : element->shapes) {
      listed.insert(bits);
      codes.insert(code);
    }
    EXPECT_EQ(listed, bitmaps) << "element " << quad_code;
    EXPECT_EQ(codes.size(), element->shapes.size()) << "element " << quad_code;
  }
  EXPECT_EQ(PrimaryKeysByTid(tman.get()).size(), data.size());

  const double cw = w * spec.bounds.width();
  const double ch = w * spec.bounds.height();
  for (const index::QuadCell& anchor : anchors) {
    // The element, each of its cells, and a strip into its neighbours.
    const double x0 = spec.bounds.min_lon + anchor.x * cw;
    const double y0 = spec.bounds.min_lat + anchor.y * ch;
    ExpectSpatialMatchesBruteForce(tman.get(), data,
                                   geo::MBR{x0, y0, x0 + 3 * cw, y0 + 3 * ch});
    for (int c = 0; c < 9; c++) {
      const double cx = x0 + (c % 3 + 0.25) * cw;
      const double cy = y0 + (c / 3 + 0.25) * ch;
      ExpectSpatialMatchesBruteForce(
          tman.get(), data, geo::MBR{cx, cy, cx + 0.5 * cw, cy + 0.5 * ch});
    }
    ExpectSpatialMatchesBruteForce(
        tman.get(), data,
        geo::MBR{x0 + 2.2 * cw, y0, x0 + 4.5 * cw, y0 + 0.7 * ch});
  }
  for (size_t i = 0; i < walks.size(); i += 7) {
    ExpectThresholdMatchesBruteForce(tman.get(), data, walks[i], 0.3 * cw);
  }

  std::map<uint64_t, index::ShapeList> lists;
  for (const auto& [quad_code, bitmaps] : want) {
    lists[quad_code] = tman->index_cache()->GetElement(quad_code)->shapes;
  }
  tman.reset();
  ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
  for (const auto& [quad_code, shapes] : lists) {
    EXPECT_EQ(tman->index_cache()->GetElement(quad_code)->shapes, shapes)
        << "element " << quad_code;
  }
}

// One thread inserts batches that register new elements while another runs
// spatial range and threshold queries against the same instance. Every call
// succeeds, and once the writer is done every answer matches brute force.
TEST(TManConcurrencyTest, QueriesDuringInsertsSucceedAndConverge) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("concurrent"), &tman).ok());

  const auto initial = traj::Generate(spec, 100, 11);
  ASSERT_TRUE(tman->BulkLoad(initial).ok());
  const size_t bulk_elements = tman->index_cache()->occupied_elements();

  auto more = traj::Generate(spec, 300, 12);
  for (auto& t : more) t.tid += "-new";
  const auto windows = traj::RandomSpaceWindows(spec, 8, 4000, 13);
  const double threshold = 0.02;

  std::atomic<bool> writer_done{false};
  std::atomic<int> queries_run{0};
  std::atomic<int> query_failures{0};
  std::thread reader([&] {
    for (size_t i = 0; i == 0 || !writer_done.load(); i++) {
      std::vector<traj::Trajectory> out;
      if (!tman->SpatialRangeQuery(windows[i % windows.size()].rect, &out,
                                   nullptr)
               .ok()) {
        query_failures++;
      }
      out.clear();
      if (!tman->ThresholdSimilarityQuery(more[(7 * i) % more.size()],
                                          geo::SimilarityMeasure::kFrechet,
                                          threshold, &out, nullptr)
               .ok()) {
        query_failures++;
      }
      queries_run += 2;
    }
  });
  while (queries_run.load() == 0) std::this_thread::yield();

  Status insert_status;
  for (size_t off = 0; off < more.size() && insert_status.ok(); off += 50) {
    std::vector<traj::Trajectory> batch(
        more.begin() + off, more.begin() + std::min(off + 50, more.size()));
    insert_status = tman->Insert(batch);
  }
  writer_done.store(true);
  reader.join();
  ASSERT_TRUE(insert_status.ok()) << insert_status.ToString();
  EXPECT_EQ(query_failures.load(), 0) << "of " << queries_run.load();
  EXPECT_GT(tman->index_cache()->occupied_elements(), bulk_elements);

  std::vector<traj::Trajectory> all_data = initial;
  all_data.insert(all_data.end(), more.begin(), more.end());
  for (const auto& w : windows) {
    ExpectSpatialMatchesBruteForce(tman.get(), all_data, w.rect);
  }
  for (size_t i = 0; i < more.size(); i += 50) {
    ExpectThresholdMatchesBruteForce(tman.get(), all_data, more[i], threshold);
  }
}

// A BulkLoad racing Inserts on a fresh store with four regions. Inserts
// run until the load returns, so some reach regions before the load's
// files do, and those regions take the load's rows as write batches. Both
// return OK, and every trajectory is stored once and found by every query.
TEST(TManConcurrencyTest, BulkLoadRacingInsertFindsEveryTrajectoryOnce) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const TManOptions options = SmallOptions(spec);
  ASSERT_GE(options.num_shards, 4);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("bulk_race"), &tman).ok());
  const auto bulk = traj::Generate(spec, 400, 51);
  auto inserts = traj::Generate(spec, 200, 52);
  for (auto& t : inserts) t.tid += "-new";

  std::atomic<bool> go{false};
  std::atomic<bool> loaded{false};
  Status bulk_status;
  std::thread loader([&] {
    while (!go.load()) std::this_thread::yield();
    bulk_status = tman->BulkLoad(bulk);
    loaded.store(true);
  });
  size_t inserted = 0;
  Status insert_status;
  go.store(true);
  while (insert_status.ok() && inserted < inserts.size() &&
         (inserted == 0 || !loaded.load())) {
    const size_t n = std::min<size_t>(10, inserts.size() - inserted);
    insert_status = tman->Insert(std::vector<traj::Trajectory>(
        inserts.begin() + inserted, inserts.begin() + inserted + n));
    inserted += n;
  }
  loader.join();
  ASSERT_TRUE(bulk_status.ok()) << bulk_status.ToString();
  ASSERT_TRUE(insert_status.ok()) << insert_status.ToString();

  std::vector<traj::Trajectory> all = bulk;
  all.insert(all.end(), inserts.begin(), inserts.begin() + inserted);
  EXPECT_EQ(PrimaryKeysByTid(tman.get()).size(), all.size());
  EXPECT_EQ(PrimaryRowCount(tman.get()), all.size());
  ExpectQueriesMatchBruteForce(tman.get(), spec, all, EveryNth(all, 60));
}

// ---------------------------------------------------------------------------
// Durability: the shape catalog lives in the meta table, so a reopened
// store answers as it did before the close.

// One line per call of the six queries and the three counts: the call,
// its status, and the sorted result tids or the count. `results` sums the
// result rows per query type.
struct Answers {
  std::vector<std::string> lines;
  std::map<std::string, size_t> results;
};

Answers CollectAnswers(TMan* tman, const traj::DatasetSpec& spec,
                       const std::vector<traj::Trajectory>& probes) {
  Answers answers;
  using Run = std::function<Status(std::vector<traj::Trajectory>*)>;
  auto rows = [&](const std::string& type, const std::string& call,
                  const Run& run) {
    std::vector<traj::Trajectory> out;
    const Status s = run(&out);
    std::string line = type + " " + call + " " + s.ToString();
    for (const std::string& tid : TidsOf(out)) line += " " + tid;
    answers.lines.push_back(line);
    answers.results[type] += out.size();
  };
  auto count = [&](const std::string& call,
                   const std::function<Status(uint64_t*)>& run) {
    uint64_t n = 0;
    const Status s = run(&n);
    answers.lines.push_back(call + " " + s.ToString() + " " +
                            std::to_string(n));
  };
  const auto tws = traj::RandomTimeWindows(spec, 4, 12 * 3600, 4);
  const auto sws = traj::RandomSpaceWindows(spec, 4, 5000, 4);
  for (size_t i = 0; i < tws.size(); i++) {
    const std::string at = std::to_string(i);
    const int64_t ts = tws[i].ts;
    const int64_t te = tws[i].te;
    const geo::MBR& rect = sws[i].rect;
    rows("TRQ", at, [&](auto* out) {
      return tman->TemporalRangeQuery(ts, te, out);
    });
    rows("SRQ", at, [&](auto* out) {
      return tman->SpatialRangeQuery(rect, out);
    });
    rows("STRQ", at, [&](auto* out) {
      return tman->SpatioTemporalRangeQuery(rect, ts, te, out);
    });
    count("TRQ count " + at, [&](uint64_t* n) {
      return tman->TemporalRangeCount(ts, te, n);
    });
    count("SRQ count " + at, [&](uint64_t* n) {
      return tman->SpatialRangeCount(rect, n);
    });
    count("STRQ count " + at, [&](uint64_t* n) {
      return tman->SpatioTemporalRangeCount(rect, ts, te, n);
    });
  }
  for (const traj::Trajectory& probe : probes) {
    rows("IDT", probe.oid, [&](auto* out) {
      return tman->IDTemporalQuery(probe.oid, spec.t0,
                                   spec.t0 + spec.horizon_seconds, out);
    });
    rows("threshold", probe.tid, [&](auto* out) {
      return tman->ThresholdSimilarityQuery(
          probe, geo::SimilarityMeasure::kFrechet, 0.02, out);
    });
    rows("top-k", probe.tid, [&](auto* out) {
      return tman->TopKSimilarityQuery(probe, geo::SimilarityMeasure::kFrechet,
                                       5, out);
    });
  }
  return answers;
}

void ExpectSameAnswers(const Answers& after, const Answers& before) {
  ASSERT_EQ(after.lines.size(), before.lines.size());
  for (size_t i = 0; i < before.lines.size(); i++) {
    EXPECT_EQ(after.lines[i], before.lines[i]);
  }
}

// Each occupied element's shape list.
std::map<uint64_t, index::ShapeList> CatalogOf(TMan* tman) {
  std::map<uint64_t, index::ShapeList> catalog;
  IndexCache* cache = tman->index_cache();
  for (uint64_t e = cache->NextOccupied(0); e != UINT64_MAX;
       e = cache->NextOccupied(e + 1)) {
    catalog[e] = cache->GetElement(e)->shapes;
  }
  return catalog;
}

// Close and reopen in every primary layout, with and without Inserts that
// add shapes to bulk-loaded elements and create new elements, and with the
// index cache off: all six queries, the three counts and the catalog's
// counts are as before the close, and an Insert after the reopen keeps
// every answer matching brute force.
TEST(TManDurabilityTest, ReopenGivesTheSameAnswers) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto initial = traj::Generate(spec, 150, 31);
  auto more = traj::Generate(spec, 150, 32);
  for (auto& t : more) t.tid += "-new";
  auto late = traj::Generate(spec, 40, 33);
  for (auto& t : late) t.tid += "-late";
  const struct {
    PrimaryIndexKind primary;
    bool use_index_cache;
    const char* name;
  } layouts[] = {{PrimaryIndexKind::kSpatial, true, "spatial"},
                 {PrimaryIndexKind::kST, true, "st"},
                 {PrimaryIndexKind::kTemporal, true, "temporal"},
                 {PrimaryIndexKind::kSpatial, false, "spatial_nocache"}};
  for (const auto& layout : layouts) {
    for (const bool inserts : {false, true}) {
      const std::string name =
          std::string(layout.name) + (inserts ? "_inserts" : "");
      SCOPED_TRACE(name);
      TManOptions options = SmallOptions(spec);
      options.primary = layout.primary;
      options.use_index_cache = layout.use_index_cache;
      const std::string dir = TestDir("reopen_" + name);
      std::vector<traj::Trajectory> data = initial;
      std::vector<traj::Trajectory> probes = {initial[0], initial[70],
                                              initial[140]};
      Answers before;
      size_t occupied = 0;
      uint64_t shapes = 0;
      {
        std::unique_ptr<TMan> tman;
        ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
        ASSERT_TRUE(tman->BulkLoad(initial).ok());
        if (inserts) {
          const auto bulk = CatalogOf(tman.get());
          for (size_t off = 0; off < more.size(); off += 50) {
            ASSERT_TRUE(tman->Insert({more.begin() + off,
                                      more.begin() + off + 50})
                            .ok());
          }
          data.insert(data.end(), more.begin(), more.end());
          probes.push_back(more[10]);
          probes.push_back(more[90]);
          if (layout.use_index_cache) {
            const auto now = CatalogOf(tman.get());
            size_t grown = 0;
            for (const auto& [e, list] : bulk) {
              grown += now.at(e).size() > list.size();
            }
            EXPECT_GT(grown, 0u) << "no bulk-loaded element gained a shape";
            EXPECT_GT(now.size(), bulk.size()) << "no new element";
          }
        }
        occupied = tman->index_cache()->occupied_elements();
        shapes = tman->index_cache()->registered_shapes();
        before = CollectAnswers(tman.get(), spec, probes);
      }
      EXPECT_GT(before.results["TRQ"], 0u);
      EXPECT_GT(before.results["STRQ"], 0u);
      EXPECT_GT(before.results["IDT"], 0u);
      if (layout.primary == PrimaryIndexKind::kSpatial) {
        EXPECT_GT(before.results["SRQ"], 0u);
        EXPECT_GT(before.results["threshold"], 0u);
        EXPECT_GT(before.results["top-k"], 0u);
      }

      std::unique_ptr<TMan> tman;
      ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
      EXPECT_EQ(tman->index_cache()->occupied_elements(), occupied);
      EXPECT_EQ(tman->index_cache()->registered_shapes(), shapes);
      ExpectSameAnswers(CollectAnswers(tman.get(), spec, probes), before);

      ASSERT_TRUE(tman->Insert(late).ok());
      data.insert(data.end(), late.begin(), late.end());
      probes.push_back(late[0]);
      ExpectQueriesMatchBruteForce(tman.get(), spec, data, probes);
    }
  }
}

// The quickstart store (examples/quickstart.cpp: 2,000 TDrive-like trips,
// seed 7), flushed, closed and reopened, gives its queries the answers it
// gave before the close.
TEST(TManDurabilityTest, QuickstartStoreAnswersTheSameAfterReopen) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options;
  options.bounds = spec.bounds;
  options.tr.period_seconds = 1800;
  options.tr.max_periods = 48;
  options.tshape = index::TShapeConfig{3, 3, 15};
  const std::string dir = TestDir("quickstart");
  const auto data = traj::Generate(spec, 2000, 7);

  // Result counts of the quickstart's queries, in its order.
  auto run = [&](TMan* db) {
    std::vector<uint64_t> counts;
    std::vector<traj::Trajectory> out;
    auto take = [&](const Status& s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      counts.push_back(out.size());
      out.clear();
    };
    const int64_t day = spec.t0 + 24 * 3600;
    take(db->TemporalRangeQuery(day, day + 2 * 3600, &out));
    const geo::MBR window{116.39, 39.90, 116.41, 39.92};
    take(db->SpatialRangeQuery(window, &out));
    const int64_t day2 = spec.t0 + 2 * 24 * 3600;
    const geo::MBR district{116.3, 39.85, 116.5, 39.95};
    take(db->SpatioTemporalRangeQuery(district, day2, day2 + 6 * 3600, &out));
    take(db->IDTemporalQuery(data[0].oid, spec.t0,
                             spec.t0 + spec.horizon_seconds / 2, &out));
    take(db->ThresholdSimilarityQuery(
        data[10], geo::SimilarityMeasure::kFrechet, 0.02, &out));
    take(db->TopKSimilarityQuery(data[10], geo::SimilarityMeasure::kFrechet, 5,
                                 &out));
    uint64_t count = 0;
    EXPECT_TRUE(db->SpatialRangeCount(district, &count).ok());
    counts.push_back(count);
    return counts;
  };

  std::vector<uint64_t> before;
  {
    std::unique_ptr<TMan> db;
    ASSERT_TRUE(TMan::Open(options, dir, &db).ok());
    ASSERT_TRUE(db->BulkLoad(data).ok());
    ASSERT_TRUE(db->Flush().ok());
    before = run(db.get());
  }
  for (uint64_t count : before) EXPECT_GT(count, 0u);
  std::unique_ptr<TMan> db;
  ASSERT_TRUE(TMan::Open(options, dir, &db).ok());
  EXPECT_EQ(run(db.get()), before);
}

TEST(TManStorageTest, SingleRowPerTrajectoryInPrimary) {
  // TrajMesa-style multi-table storage stores each trajectory ~3 times;
  // TMan's primary holds it once (secondaries store only small key rows).
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("storage"), &tman).ok());
  const auto data = traj::Generate(spec, 100, 4);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  ASSERT_TRUE(tman->Flush().ok());
  EXPECT_GT(tman->StorageBytes(), 0u);

  // A full spatial scan returns exactly one row per trajectory.
  std::vector<traj::Trajectory> results;
  ASSERT_TRUE(
      tman->SpatialRangeQuery(spec.bounds.ToGeo(), &results, nullptr).ok());
  EXPECT_EQ(results.size(), data.size());
}

TEST(TManStorageTest, StorageBytesCountsEveryTable) {
  // The meta table holds the shape catalog; it is part of TMan's storage.
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(
      TMan::Open(SmallOptions(spec), TestDir("storage_bytes"), &tman).ok());
  ASSERT_TRUE(tman->BulkLoad(traj::Generate(spec, 200, 5)).ok());
  ASSERT_TRUE(tman->Flush().ok());
  const StorageStats stats = tman->GetStorageStats();
  EXPECT_EQ(tman->StorageBytes(), stats.sstable_bytes + stats.memtable_bytes);
}

// Secondary-index plans count each candidate once: the primary rows the
// fetch stage reads, one point Get each, and not also the index rows
// scanned to find them.
TEST(TManSecondaryFetchTest, CandidatesEqualPrimaryRowsFetched) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  obs::MetricsRegistry registry;
  TManOptions options = SmallOptions(spec);
  options.kv.metrics = &registry;
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("fetch_candidates"), &tman).ok());
  const auto data = traj::Generate(spec, 200, 21);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  ASSERT_TRUE(tman->Flush().ok());
  obs::Histogram* gets = registry.GetHistogram("tman_kv_get_micros");

  const int64_t ts = spec.t0 + 3600;
  const int64_t te = spec.t0 + 12 * 3600;
  std::vector<traj::Trajectory> out;
  QueryStats trq;
  uint64_t before = gets->count();
  ASSERT_TRUE(tman->TemporalRangeQuery(ts, te, &out, &trq).ok());
  EXPECT_EQ(trq.plan, "secondary:tr");
  EXPECT_GT(trq.candidates, 0u);
  EXPECT_EQ(trq.candidates, gets->count() - before);
  EXPECT_GE(trq.candidates, trq.results);

  QueryStats idt;
  before = gets->count();
  ASSERT_TRUE(tman->IDTemporalQuery(data[0].oid, spec.t0,
                                    spec.t0 + spec.horizon_seconds, &out,
                                    &idt)
                  .ok());
  EXPECT_EQ(idt.plan, "secondary:idt");
  EXPECT_GT(idt.candidates, 0u);
  EXPECT_EQ(idt.candidates, gets->count() - before);
  EXPECT_GE(idt.candidates, idt.results);
}

TEST(TManStorageTest, RejectsEmptyTrajectory) {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("reject"), &tman).ok());
  traj::Trajectory empty;
  empty.tid = "empty";
  EXPECT_FALSE(tman->BulkLoad({empty}).ok());
}

// Rewrites the primary row of `victim` so that its header, MBR and DP
// features stay valid (the push-down filters pass it) but its point column
// claims 0xFFFFFFF0 points.
void CorruptPointCount(TMan* tman, const traj::Trajectory& victim) {
  const std::string key = PrimaryKeysByTid(tman).at(victim.tid);
  std::string value;
  ASSERT_TRUE(tman->primary_table()->Get(key, &value).ok());
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(value, &header));
  Slice columns = header.points_blob;
  uint32_t count = 0;
  ASSERT_TRUE(GetVarint32(&columns, &count));
  ASSERT_EQ(count, victim.points.size());
  std::string points;
  PutVarint32(&points, 0xFFFFFFF0u);
  points.append(columns.data(), columns.size());
  const size_t points_at =
      static_cast<size_t>(header.points_blob.data() - value.data()) -
      VarintLength(header.points_blob.size());
  std::string corrupt = value.substr(0, points_at);
  PutLengthPrefixedSlice(&corrupt, points);
  PutLengthPrefixedSlice(&corrupt, header.dp_blob);
  ASSERT_TRUE(tman->primary_table()->Put(key, corrupt).ok());
}

TEST(TManStorageTest, CorruptPointColumnFailsSimilarityQueries) {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("corrupt_points"), &tman).ok());
  const auto data = traj::Generate(spec, 100, 4);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  // The corrupt row sits in one region of several: its region task's fork
  // hits the error while the others verify their rows.
  ASSERT_GE(tman->primary_table()->num_shards(), 4);
  const traj::Trajectory& victim = data[10];
  ASSERT_NO_FATAL_FAILURE(CorruptPointCount(tman.get(), victim));

  std::vector<traj::Trajectory> results;
  EXPECT_TRUE(tman->ThresholdSimilarityQuery(victim,
                                             geo::SimilarityMeasure::kFrechet,
                                             0.01, &results, nullptr)
                  .IsCorruption());
  // Top-k skips the query's own tid, so probe with a renamed copy; the
  // corrupt row is its nearest neighbour.
  traj::Trajectory probe = victim;
  probe.tid = "probe";
  results.clear();
  EXPECT_TRUE(tman->TopKSimilarityQuery(probe,
                                        geo::SimilarityMeasure::kFrechet, 5,
                                        &results, nullptr)
                  .IsCorruption());
}

// The spatial filter keeps a borderline row whose point column does not
// decode, so the sink that decodes it fails the query instead of the
// filter dropping the row.
TEST(TManStorageTest, CorruptPointColumnFailsSpatialQueries) {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(
      TMan::Open(options, TestDir("corrupt_points_spatial"), &tman).ok());
  const auto data = traj::Generate(spec, 100, 4);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  ASSERT_GE(tman->primary_table()->num_shards(), 4);
  const traj::Trajectory& victim = data[10];
  ASSERT_NO_FATAL_FAILURE(CorruptPointCount(tman.get(), victim));

  // A small rect around a middle vertex crosses the victim's polyline
  // without containing its MBR, so the filter must read the point column.
  const geo::TimedPoint& v = victim.points[victim.points.size() / 2];
  const geo::MBR rect{v.x - 1e-4, v.y - 1e-4, v.x + 1e-4, v.y + 1e-4};
  ASSERT_TRUE(geo::PolylineIntersectsRect(victim.points, rect));
  ASSERT_FALSE(rect.Contains(geo::ComputeMBR(victim.points)));

  std::vector<traj::Trajectory> results;
  EXPECT_TRUE(
      tman->SpatialRangeQuery(rect, &results, nullptr).IsCorruption());
  results.clear();
  EXPECT_TRUE(tman->SpatioTemporalRangeQuery(rect, victim.start_time(),
                                             victim.end_time(), &results,
                                             nullptr)
                  .IsCorruption());
  // A count has no sink to fail: it counts the row.
  uint64_t count = 0;
  ASSERT_TRUE(tman->SpatialRangeCount(rect, &count).ok());
  EXPECT_GE(count, 1u);
}

TEST(TManStorageTest, RecordRoundTrip) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto data = traj::Generate(spec, 3, 8);
  for (const auto& t : data) {
    std::string value;
    ASSERT_TRUE(EncodeRecord(t, 8, &value));
    RecordHeader header;
    ASSERT_TRUE(DecodeRecordHeader(value, &header));
    EXPECT_EQ(header.oid.ToString(), t.oid);
    EXPECT_EQ(header.tid.ToString(), t.tid);
    EXPECT_EQ(header.ts, t.start_time());
    EXPECT_EQ(header.te, t.end_time());

    traj::Trajectory decoded;
    ASSERT_TRUE(DecodeRecord(value, &decoded));
    ASSERT_EQ(decoded.points.size(), t.points.size());
    for (size_t i = 0; i < t.points.size(); i++) {
      EXPECT_EQ(decoded.points[i].x, t.points[i].x);
      EXPECT_EQ(decoded.points[i].y, t.points[i].y);
      EXPECT_EQ(decoded.points[i].t, t.points[i].t);
    }
  }
}

}  // namespace
}  // namespace tman::core
