#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/coding.h"
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

TEST_F(TManQueryTest, ThresholdSimilarityMatchesBruteForce) {
  const traj::Trajectory& query = (*data_)[7];
  const double threshold = 0.02;  // degrees
  for (auto measure : {geo::SimilarityMeasure::kFrechet,
                       geo::SimilarityMeasure::kHausdorff}) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->ThresholdSimilarityQuery(query, measure, threshold,
                                               &results, &stats)
                    .ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (geo::ExactDistance(measure, query.points, t.points) <= threshold) {
        expected.insert(t.tid);
      }
    }
    EXPECT_EQ(Tids(results), expected);
    // Pruning must have avoided computing every exact distance.
    EXPECT_LT(stats.exact_distance_computations, data_->size());
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
  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink sink(&rows);
  EXPECT_TRUE(tman->primary_table()
                  ->MultiScan({cluster::KeyRange{"", ""}}, nullptr, 0, &sink,
                              nullptr)
                  .ok());
  std::map<std::string, std::string> keys;
  for (const cluster::Row& row : rows) {
    keys[TidOfPrimaryKey(row.key, 8).ToString()] = row.key;
  }
  return keys;
}

TEST(TManUpdateTest, InsertTriggersReencodeAndStaysQueryable) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  options.buffer_shape_threshold = 16;  // force re-encodes quickly
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("update"), &tman).ok());

  const auto initial = traj::Generate(spec, 100, 1);
  ASSERT_TRUE(tman->BulkLoad(initial).ok());
  const size_t bulk_elements = tman->index_cache()->occupied_elements();

  // Insert in several batches; new shapes accumulate in the buffer shape
  // cache and trigger re-encoding. A trajectory whose primary key changes
  // across a batch was moved by a re-encode.
  auto more = traj::Generate(spec, 300, 2);
  for (auto& t : more) t.tid += "-new";
  std::map<std::string, std::string> keys = PrimaryKeysByTid(tman.get());
  std::set<std::string> moved;
  for (size_t off = 0; off < more.size(); off += 50) {
    std::vector<traj::Trajectory> batch(
        more.begin() + off,
        more.begin() + std::min(off + 50, more.size()));
    ASSERT_TRUE(tman->Insert(batch).ok());
    const std::map<std::string, std::string> now = PrimaryKeysByTid(tman.get());
    for (const auto& [tid, key] : keys) {
      const auto it = now.find(tid);
      ASSERT_NE(it, now.end()) << tid << " lost by a re-encode";
      if (it->second != key) moved.insert(tid);
    }
    keys = now;
  }
  EXPECT_GT(tman->reencode_count(), 0u);
  ASSERT_FALSE(moved.empty());
  EXPECT_LE(moved.size(), tman->rows_rewritten());
  // Inserts landed in elements that were empty at BulkLoad, which the
  // planner must stop pruning.
  EXPECT_GT(tman->index_cache()->occupied_elements(), bulk_elements);

  // After re-encoding every trajectory must still be retrievable.
  std::vector<traj::Trajectory> all_data = initial;
  all_data.insert(all_data.end(), more.begin(), more.end());
  for (const auto& w : traj::RandomSpaceWindows(spec, 5, 4000, 3)) {
    ExpectSpatialMatchesBruteForce(tman.get(), all_data, w.rect);
  }

  const auto tws = traj::RandomTimeWindows(spec, 5, 12 * 3600, 4);
  const auto sws = traj::RandomSpaceWindows(spec, 5, 5000, 4);
  for (size_t i = 0; i < tws.size(); i++) {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->SpatioTemporalRangeQuery(sws[i].rect, tws[i].ts,
                                               tws[i].te, &results, nullptr)
                    .ok());
    EXPECT_EQ(TidsOf(results),
              TidsWhere(all_data, [&](const traj::Trajectory& t) {
                return t.IntersectsTimeRange(tws[i].ts, tws[i].te) &&
                       geo::PolylineIntersectsRect(t.points, sws[i].rect);
              }))
        << "window " << i;
  }

  for (size_t i = 0; i < more.size(); i += 60) {
    const traj::Trajectory& probe = more[i];
    ExpectThresholdMatchesBruteForce(tman.get(), all_data, probe, 0.02);

    const size_t k = 5;
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->TopKSimilarityQuery(probe,
                                          geo::SimilarityMeasure::kFrechet, k,
                                          &results, nullptr)
                    .ok());
    std::vector<double> want;
    for (const auto& t : all_data) {
      if (t.tid != probe.tid) {
        want.push_back(geo::DiscreteFrechet(probe.points, t.points));
      }
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(results.size(), k);
    std::vector<double> got;
    for (const auto& t : results) {
      got.push_back(geo::DiscreteFrechet(probe.points, t.points));
    }
    std::sort(got.begin(), got.end());
    for (size_t j = 0; j < k; j++) {
      EXPECT_NEAR(got[j], want[j], 1e-12) << probe.tid << " rank " << j;
    }
  }

  // TRQ and IDT read the secondary tables, whose values must name the
  // moved rows' new keys: a primary fetch that misses is skipped silently.
  for (const auto& tw : tws) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE(
        tman->TemporalRangeQuery(tw.ts, tw.te, &results, &stats).ok());
    EXPECT_EQ(stats.plan, "secondary:tr");
    EXPECT_EQ(TidsOf(results),
              TidsWhere(all_data, [&](const traj::Trajectory& t) {
                return t.IntersectsTimeRange(tw.ts, tw.te);
              }));
  }
  std::set<std::string> moved_oids;
  for (const auto& t : all_data) {
    if (moved.count(t.tid) > 0) moved_oids.insert(t.oid);
  }
  const int64_t ts = spec.t0;
  const int64_t te = spec.t0 + spec.horizon_seconds;
  for (const std::string& oid : moved_oids) {
    std::vector<traj::Trajectory> results;
    QueryStats stats;
    ASSERT_TRUE(tman->IDTemporalQuery(oid, ts, te, &results, &stats).ok());
    EXPECT_EQ(stats.plan, "secondary:idt");
    EXPECT_EQ(TidsOf(results),
              TidsWhere(all_data, [&](const traj::Trajectory& t) {
                return t.oid == oid && t.IntersectsTimeRange(ts, te);
              }))
        << oid;
  }

  // DeleteTrajectory finds a row through the IDT table: deleting moved
  // trajectories must remove their rows at the new keys.
  std::vector<traj::Trajectory> deleted;
  for (const auto& t : all_data) {
    if (moved.count(t.tid) > 0 && deleted.size() < 5) deleted.push_back(t);
  }
  for (const auto& t : deleted) {
    ASSERT_TRUE(tman->DeleteTrajectory(t.oid, t.tid).ok()) << t.tid;
  }
  std::vector<traj::Trajectory> remaining;
  for (const auto& t : all_data) {
    if (std::none_of(deleted.begin(), deleted.end(),
                     [&](const traj::Trajectory& d) {
                       return d.tid == t.tid;
                     })) {
      remaining.push_back(t);
    }
  }
  keys = PrimaryKeysByTid(tman.get());
  for (const auto& t : deleted) {
    EXPECT_EQ(keys.count(t.tid), 0u) << t.tid;
    ExpectSpatialMatchesBruteForce(tman.get(), remaining, t.ComputeMBR());
  }
}

// One thread inserts batches that register new elements while another runs
// spatial range and threshold queries against the same instance. Every call
// succeeds, and once the writer is done every answer matches brute force.
TEST(TManConcurrencyTest, QueriesDuringInsertsSucceedAndConverge) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  // Above the number of shapes inserted below: re-encode moves rows before
  // it publishes their new codes, so a query planned on the old catalog
  // can miss a moved row.
  options.buffer_shape_threshold = 100000;
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
  EXPECT_EQ(tman->reencode_count(), 0u);
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

  // Rewrite one row so that its header, MBR and DP features stay valid
  // (the push-down filters pass it) but its point column claims 0xFFFFFFF0
  // points.
  const traj::Trajectory& victim = data[10];
  const std::string key = PrimaryKeysByTid(tman.get()).at(victim.tid);
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
