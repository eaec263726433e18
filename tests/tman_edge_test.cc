// Edge-case and planner tests for the TMan facade: RBO/CBO decisions,
// boundary queries, unsupported combinations, and metadata.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "common/coding.h"
#include "core/tman.h"
#include "traj/generator.h"

namespace tman::core {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_edge_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TManOptions SmallOptions(const traj::DatasetSpec& spec) {
  TManOptions options;
  options.bounds = spec.bounds;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.num_shards = 4;
  options.num_servers = 2;
  options.genetic.generations = 5;
  return options;
}

TEST(TManEdgeTest, RejectsDegenerateBounds) {
  TManOptions options;
  options.bounds = traj::SpatialBounds{10, 10, 10, 20};  // zero width
  std::unique_ptr<TMan> tman;
  EXPECT_FALSE(TMan::Open(options, TestDir("degenerate"), &tman).ok());
}

TEST(TManEdgeTest, SpatialQueryNeedsSpatialPrimary) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  options.primary = PrimaryIndexKind::kTemporal;
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("needsspatial"), &tman).ok());
  std::vector<traj::Trajectory> out;
  const Status s =
      tman->SpatialRangeQuery(geo::MBR{116, 39, 117, 40}, &out, nullptr);
  EXPECT_FALSE(s.ok());
  const Status sim = tman->ThresholdSimilarityQuery(
      traj::Trajectory{}, geo::SimilarityMeasure::kFrechet, 0.1, &out,
      nullptr);
  EXPECT_FALSE(sim.ok());
}

TEST(TManEdgeTest, EmptyResultQueriesAreCleanly) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(SmallOptions(spec), TestDir("empty"), &tman).ok());
  const auto data = traj::Generate(spec, 50, 5);
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  std::vector<traj::Trajectory> out;
  // Window far in the future.
  ASSERT_TRUE(tman->TemporalRangeQuery(spec.t0 + 100 * 86400,
                                       spec.t0 + 101 * 86400, &out, nullptr)
                  .ok());
  EXPECT_TRUE(out.empty());
  // Window outside the populated core (but inside bounds).
  ASSERT_TRUE(tman->SpatialRangeQuery(geo::MBR{110.1, 35.1, 110.2, 35.2},
                                      &out, nullptr)
                  .ok());
  EXPECT_TRUE(out.empty());
  // Unknown object.
  ASSERT_TRUE(tman->IDTemporalQuery("ghost", spec.t0, spec.t0 + 86400, &out,
                                    nullptr)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST(TManEdgeTest, QueryWindowLargerThanBoundsIsClipped) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(SmallOptions(spec), TestDir("clip"), &tman).ok());
  const auto data = traj::Generate(spec, 80, 6);
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  // A window exceeding the dataset boundary on all sides returns all data.
  std::vector<traj::Trajectory> out;
  ASSERT_TRUE(
      tman->SpatialRangeQuery(geo::MBR{-180, -90, 180, 90}, &out, nullptr)
          .ok());
  EXPECT_EQ(out.size(), data.size());
}

TEST(TManEdgeTest, TopKWithKLargerThanDataset) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(SmallOptions(spec), TestDir("bigk"), &tman).ok());
  const auto data = traj::Generate(spec, 20, 7);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  std::vector<traj::Trajectory> out;
  ASSERT_TRUE(tman->TopKSimilarityQuery(data[0],
                                        geo::SimilarityMeasure::kHausdorff,
                                        100, &out, nullptr)
                  .ok());
  // Everything except the query itself.
  EXPECT_EQ(out.size(), data.size() - 1);

  out.clear();
  ASSERT_TRUE(tman->TopKSimilarityQuery(data[0],
                                        geo::SimilarityMeasure::kHausdorff, 0,
                                        &out, nullptr)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST(TManEdgeTest, STPrimaryUsesCBOPlans) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  options.primary = PrimaryIndexKind::kST;
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("cbo"), &tman).ok());
  const auto data = traj::Generate(spec, 150, 8);
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  // A tiny time range with a tiny spatial window should allow the fine
  // plan; a huge one must fall back to coarse. Either way results are
  // correct (checked in the config matrix); here we check the planner's
  // decision is recorded.
  std::vector<traj::Trajectory> out;
  QueryStats fine_stats;
  ASSERT_TRUE(tman->SpatioTemporalRangeQuery(
                      geo::MBR{116.40, 39.90, 116.41, 39.91}, spec.t0,
                      spec.t0 + 1800, &out, &fine_stats)
                  .ok());
  EXPECT_TRUE(fine_stats.plan == "primary:st-fine" ||
              fine_stats.plan == "primary:st-coarse");

  out.clear();
  QueryStats coarse_stats;
  ASSERT_TRUE(tman->SpatioTemporalRangeQuery(
                      geo::MBR{110, 35, 125, 45}, spec.t0,
                      spec.t0 + spec.horizon_seconds, &out, &coarse_stats)
                  .ok());
  EXPECT_EQ(coarse_stats.plan, "primary:st-coarse");
}

TEST(TManEdgeTest, TemporalPlanStringsReflectRBO) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto data = traj::Generate(spec, 60, 9);

  // Spatial primary -> TRQ runs through the TR secondary table.
  std::unique_ptr<TMan> spatial;
  ASSERT_TRUE(
      TMan::Open(SmallOptions(spec), TestDir("rbo_spatial"), &spatial).ok());
  ASSERT_TRUE(spatial->BulkLoad(data).ok());
  std::vector<traj::Trajectory> out;
  QueryStats stats;
  ASSERT_TRUE(spatial->TemporalRangeQuery(spec.t0, spec.t0 + 3600, &out,
                                          &stats)
                  .ok());
  EXPECT_EQ(stats.plan, "secondary:tr");

  // Temporal primary -> direct.
  TManOptions topt = SmallOptions(spec);
  topt.primary = PrimaryIndexKind::kTemporal;
  std::unique_ptr<TMan> temporal;
  ASSERT_TRUE(TMan::Open(topt, TestDir("rbo_temporal"), &temporal).ok());
  ASSERT_TRUE(temporal->BulkLoad(data).ok());
  out.clear();
  QueryStats tstats;
  ASSERT_TRUE(temporal->TemporalRangeQuery(spec.t0, spec.t0 + 3600, &out,
                                           &tstats)
                  .ok());
  EXPECT_EQ(tstats.plan, "primary:temporal");

  // ST primary -> the tr prefix is scanned directly.
  TManOptions sopt = SmallOptions(spec);
  sopt.primary = PrimaryIndexKind::kST;
  std::unique_ptr<TMan> st;
  ASSERT_TRUE(TMan::Open(sopt, TestDir("rbo_st"), &st).ok());
  ASSERT_TRUE(st->BulkLoad(data).ok());
  out.clear();
  QueryStats ststats;
  ASSERT_TRUE(
      st->TemporalRangeQuery(spec.t0, spec.t0 + 3600, &out, &ststats).ok());
  EXPECT_EQ(ststats.plan, "primary:st-prefix");
}

// The meta table holds the config row and one catalog row per occupied
// element: the catalog prefix and the element code in big-endian, then the
// element's (bitmap, final code) pairs in code order, fixed32 each.
TEST(TManEdgeTest, MetadataTableHoldsConfig) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  options.tshape = index::TShapeConfig{4, 4, 14};
  const std::string dir = TestDir("meta");
  std::map<uint64_t, index::ShapeList> catalog;
  {
    std::unique_ptr<TMan> tman;
    ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
    IndexCache* cache = tman->index_cache();
    EXPECT_EQ(cache->occupied_elements(), 0u);
    ASSERT_TRUE(tman->BulkLoad(traj::Generate(spec, 30, 10)).ok());
    for (uint64_t e = cache->NextOccupied(0); e != UINT64_MAX;
         e = cache->NextOccupied(e + 1)) {
      catalog[e] = cache->GetElement(e)->shapes;
    }
    EXPECT_EQ(catalog.size(), cache->occupied_elements());
    EXPECT_GT(catalog.size(), 0u);
  }

  cluster::Cluster cluster(dir, 1, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("meta", 1).ok());
  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink collect(&rows);
  ASSERT_TRUE(cluster.GetTable("meta")
                  ->MultiScan({cluster::KeyRange{}}, nullptr, 0, &collect,
                              nullptr)
                  .ok());
  ASSERT_EQ(rows.size(), catalog.size() + 1);
  EXPECT_EQ(rows[0].key, std::string("\0config", 7));
  for (const char* field :
       {"tshape.alpha=4;tshape.beta=4;tshape.max_resolution=14;",
        "tr.period_seconds=3600;tr.max_periods=24;", "num_shards=4;",
        "use_index_cache=1;"}) {
    EXPECT_NE(rows[0].value.find(field), std::string::npos)
        << field << " in " << rows[0].value;
  }
  for (size_t i = 1; i < rows.size(); i++) {
    const std::string& key = rows[i].key;
    ASSERT_EQ(key.size(), 9u);
    EXPECT_EQ(key[0], IndexCache::kCatalogPrefix);
    const auto it = catalog.find(DecodeBigEndian64(key.data() + 1));
    ASSERT_NE(it, catalog.end());
    const std::string& value = rows[i].value;
    ASSERT_EQ(value.size(), 8 * it->second.size());
    for (size_t j = 0; j < it->second.size(); j++) {
      EXPECT_EQ(DecodeFixed32(value.data() + 8 * j), it->second[j].first);
      EXPECT_EQ(DecodeFixed32(value.data() + 8 * j + 4), it->second[j].second);
    }
  }
}

// A store keeps the options that decide its keys and codes for life:
// reopening it with one of them changed fails and names the option, and
// reopening it with the same options finds every row as before.
TEST(TManEdgeTest, ReopenRefusesAnotherKeyLayout) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const TManOptions options = SmallOptions(spec);
  const std::string dir = TestDir("layout");
  const geo::MBR window{116.2, 39.8, 116.6, 40.1};
  const int64_t ts = spec.t0;
  const int64_t te = spec.t0 + 6 * 3600;
  uint64_t trq = 0, srq = 0;
  {
    std::unique_ptr<TMan> tman;
    ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
    ASSERT_TRUE(tman->BulkLoad(traj::Generate(spec, 80, 21)).ok());
    ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &trq).ok());
    ASSERT_TRUE(tman->SpatialRangeCount(window, &srq).ok());
    ASSERT_GT(trq, 0u);
    ASSERT_GT(srq, 0u);
  }

  const struct {
    const char* field;
    std::function<void(TManOptions*)> change;
  } changes[] = {
      {"tshape.alpha", [](TManOptions* o) { o->tshape.alpha = 4; }},
      {"num_shards", [](TManOptions* o) { o->num_shards = 8; }},
      {"use_index_cache", [](TManOptions* o) { o->use_index_cache = false; }},
      {"tr.period_seconds", [](TManOptions* o) { o->tr.period_seconds = 1800; }},
      {"bounds", [](TManOptions* o) { o->bounds.max_lon += 1e-9; }},
      {"primary", [](TManOptions* o) { o->primary = PrimaryIndexKind::kST; }},
  };
  for (const auto& change : changes) {
    TManOptions changed = options;
    change.change(&changed);
    std::unique_ptr<TMan> tman;
    const Status s = TMan::Open(changed, dir, &tman);
    EXPECT_TRUE(s.IsInvalidArgument()) << change.field << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(change.field), std::string::npos)
        << s.ToString();
    EXPECT_EQ(tman, nullptr);
  }

  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
  uint64_t count = 0;
  ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &count).ok());
  EXPECT_EQ(count, trq);
  ASSERT_TRUE(tman->SpatialRangeCount(window, &count).ok());
  EXPECT_EQ(count, srq);
}

TEST(TManEdgeTest, DeleteTrajectoryRemovesAllIndexRows) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(SmallOptions(spec), TestDir("delete"), &tman).ok());
  const auto data = traj::Generate(spec, 80, 13);
  ASSERT_TRUE(tman->BulkLoad(data).ok());

  const traj::Trajectory& victim = data[5];
  ASSERT_TRUE(tman->DeleteTrajectory(victim.oid, victim.tid).ok());
  // Deleting again reports NotFound.
  EXPECT_TRUE(
      tman->DeleteTrajectory(victim.oid, victim.tid).IsNotFound());
  EXPECT_TRUE(tman->DeleteTrajectory("ghost", "ghost-t").IsNotFound());

  // The trajectory is gone from every query path.
  std::vector<traj::Trajectory> out;
  ASSERT_TRUE(tman->SpatialRangeQuery(spec.bounds.ToGeo(), &out, nullptr).ok());
  for (const auto& t : out) EXPECT_NE(t.tid, victim.tid);
  EXPECT_EQ(out.size(), data.size() - 1);

  out.clear();
  ASSERT_TRUE(tman->TemporalRangeQuery(victim.start_time(), victim.end_time(),
                                       &out, nullptr)
                  .ok());
  for (const auto& t : out) EXPECT_NE(t.tid, victim.tid);

  out.clear();
  ASSERT_TRUE(tman->IDTemporalQuery(victim.oid, spec.t0,
                                    spec.t0 + spec.horizon_seconds, &out,
                                    nullptr)
                  .ok());
  for (const auto& t : out) EXPECT_NE(t.tid, victim.tid);
}

TEST(TManEdgeTest, ZeroLengthTimeRange) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(SmallOptions(spec), TestDir("instant"), &tman).ok());
  const auto data = traj::Generate(spec, 60, 12);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  // A point-in-time query (ts == te) returns trajectories active then.
  const int64_t instant = data[0].start_time() + data[0].duration() / 2;
  std::vector<traj::Trajectory> out;
  ASSERT_TRUE(tman->TemporalRangeQuery(instant, instant, &out, nullptr).ok());
  std::set<std::string> tids;
  for (const auto& t : out) tids.insert(t.tid);
  EXPECT_TRUE(tids.count(data[0].tid) > 0);
  for (const auto& t : data) {
    const bool expected = t.start_time() <= instant && t.end_time() >= instant;
    EXPECT_EQ(tids.count(t.tid) > 0, expected) << t.tid;
  }
}

}  // namespace
}  // namespace tman::core
