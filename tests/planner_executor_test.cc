#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "core/executor.h"
#include "core/filters.h"
#include "core/planner.h"
#include "core/record.h"
#include "core/tman.h"
#include "geo/similarity.h"
#include "traj/generator.h"

namespace tman::core {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_pipe_" + name;
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

// ---------------------------------------------------------------------------
// Planner unit tests: plans are produced from indexes + options alone; the
// only storage behind them is the shape catalog's meta table.

class PlannerHarness {
 public:
  explicit PlannerHarness(TManOptions options)
      : options_(std::move(options)),
        tr_(options_.tr),
        xzt_(options_.xzt),
        tshape_(options_.tshape),
        xz2_(options_.xz2),
        xzstar_(options_.tshape.max_resolution),
        cluster_(TestDir("catalog_" + std::to_string(instances_++)), 1,
                 kv::Options()),
        catalog_(MetaTable(&cluster_), 1024, options_.tshape.shape_bits()),
        planner_(&options_, &tr_, &xzt_, &tshape_, &xz2_, &xzstar_,
                 options_.use_index_cache ? &catalog_ : nullptr) {
    EXPECT_TRUE(catalog_.Open().ok());
  }

  const QueryPlanner& planner() const { return planner_; }

  // Registers each trajectory's TShape element and shape in the catalog,
  // one request per trajectory in one call.
  void Register(const std::vector<traj::Trajectory>& data) {
    std::vector<ShapeRequest> requests;
    for (const traj::Trajectory& t : data) {
      std::vector<geo::TimedPoint> norm;
      for (const geo::TimedPoint& p : t.points) {
        const geo::Point np = options_.bounds.Normalize(geo::Point{p.x, p.y});
        norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
      }
      const index::TShapeEncoding enc = tshape_.Encode(norm);
      requests.push_back(ShapeRequest{enc.quad_code, {enc.shape}});
    }
    std::vector<std::vector<uint32_t>> codes;
    EXPECT_TRUE(catalog_.PlaceShapes(requests, &codes).ok());
  }

 private:
  static cluster::ClusterTable* MetaTable(cluster::Cluster* cluster) {
    EXPECT_TRUE(cluster->CreateTable("meta", 1).ok());
    return cluster->GetTable("meta");
  }

  static inline int instances_ = 0;

  TManOptions options_;
  index::TRIndex tr_;
  index::XZTIndex xzt_;
  index::TShapeIndex tshape_;
  index::XZ2Index xz2_;
  index::XZStarIndex xzstar_;
  cluster::Cluster cluster_;
  IndexCache catalog_;
  QueryPlanner planner_;
};

TManOptions PlannerOptions(PrimaryIndexKind primary) {
  TManOptions options = SmallOptions(traj::TDriveLikeSpec());
  options.primary = primary;
  options.use_index_cache = false;  // plans must not need the cache
  return options;
}

TEST(PlannerTest, TemporalPlanFollowsPrimaryIndex) {
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kTemporal));
    QueryPlan plan;
    ASSERT_TRUE(h.planner().PlanTemporalRange(0, 7200, &plan).ok());
    EXPECT_EQ(plan.name, "primary:temporal");
    EXPECT_EQ(plan.kind, PlanKind::kPrimaryScan);
    EXPECT_EQ(plan.scan_table, PlanTable::kPrimary);
    EXPECT_FALSE(plan.windows.empty());
    EXPECT_NE(plan.filter, nullptr);
    EXPECT_GT(plan.index_values, 0u);
  }
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kST));
    QueryPlan plan;
    ASSERT_TRUE(h.planner().PlanTemporalRange(0, 7200, &plan).ok());
    EXPECT_EQ(plan.name, "primary:st-prefix");
    EXPECT_EQ(plan.kind, PlanKind::kPrimaryScan);
  }
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kSpatial));
    QueryPlan plan;
    ASSERT_TRUE(h.planner().PlanTemporalRange(0, 7200, &plan).ok());
    EXPECT_EQ(plan.name, "secondary:tr");
    EXPECT_EQ(plan.kind, PlanKind::kSecondaryFetch);
    EXPECT_EQ(plan.scan_table, PlanTable::kTRSecondary);
  }
}

TEST(PlannerTest, SpatialPlanRequiresSpatialPrimary) {
  const geo::MBR rect{116.3, 39.8, 116.5, 40.0};
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kTemporal));
    QueryPlan plan;
    EXPECT_FALSE(h.planner().PlanSpatialRange(rect, &plan).ok());
  }
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kSpatial));
    QueryPlan plan;
    ASSERT_TRUE(h.planner().PlanSpatialRange(rect, &plan).ok());
    EXPECT_EQ(plan.name, "primary:spatial");
    EXPECT_FALSE(plan.windows.empty());
    EXPECT_NE(plan.filter, nullptr);
    EXPECT_GT(plan.elements_visited, 0u);
  }
}

TEST(PlannerTest, SpatioTemporalCBOChoiceMatchesEstimate) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  PlannerHarness h(PlannerOptions(PrimaryIndexKind::kST));

  // The CBO decision must be consistent with its own window estimate.
  QueryPlan small;
  ASSERT_TRUE(h.planner()
                  .PlanSpatioTemporalRange(geo::MBR{116.40, 39.90, 116.41,
                                                    39.91},
                                           spec.t0, spec.t0 + 1800, &small)
                  .ok());
  if (small.estimated_fine_windows <= QueryPlanner::kFineWindowBudget) {
    EXPECT_EQ(small.name, "primary:st-fine");
    EXPECT_EQ(small.windows.size(), small.estimated_fine_windows);
  } else {
    EXPECT_EQ(small.name, "primary:st-coarse");
  }

  // A query covering the whole dataset must exceed the fine budget.
  QueryPlan huge;
  ASSERT_TRUE(h.planner()
                  .PlanSpatioTemporalRange(geo::MBR{110, 35, 125, 45}, spec.t0,
                                           spec.t0 + spec.horizon_seconds,
                                           &huge)
                  .ok());
  EXPECT_EQ(huge.name, "primary:st-coarse");
  EXPECT_GT(huge.estimated_fine_windows, QueryPlanner::kFineWindowBudget);
}

TEST(PlannerTest, NonSTPrimariesFilterTheOtherDimension) {
  const geo::MBR rect{116.3, 39.8, 116.5, 40.0};
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kSpatial));
    QueryPlan plan;
    ASSERT_TRUE(
        h.planner().PlanSpatioTemporalRange(rect, 0, 7200, &plan).ok());
    EXPECT_EQ(plan.name, "primary:spatial+tfilter");
  }
  {
    PlannerHarness h(PlannerOptions(PrimaryIndexKind::kTemporal));
    QueryPlan plan;
    ASSERT_TRUE(
        h.planner().PlanSpatioTemporalRange(rect, 0, 7200, &plan).ok());
    EXPECT_EQ(plan.name, "primary:temporal+sfilter");
  }
}

TEST(PlannerTest, IDTemporalAndSimilarityPlans) {
  PlannerHarness h(PlannerOptions(PrimaryIndexKind::kSpatial));
  QueryPlan idt;
  ASSERT_TRUE(h.planner().PlanIDTemporal("obj-1", 0, 7200, &idt).ok());
  EXPECT_EQ(idt.name, "secondary:idt");
  EXPECT_EQ(idt.kind, PlanKind::kSecondaryFetch);
  EXPECT_EQ(idt.scan_table, PlanTable::kIDTSecondary);
  EXPECT_FALSE(idt.windows.empty());

  const geo::MBR qmbr{116.40, 39.90, 116.45, 39.95};
  QueryPlan sim;
  ASSERT_TRUE(h.planner()
                  .PlanSimilarityCandidates(
                      qmbr, 0.01,
                      std::make_unique<MBRDistanceFilter>(qmbr, 0.01),
                      "similarity:topk", &sim)
                  .ok());
  EXPECT_EQ(sim.name, "similarity:topk");
  EXPECT_EQ(sim.kind, PlanKind::kPrimaryScan);
  EXPECT_FALSE(sim.windows.empty());
  EXPECT_NE(sim.filter, nullptr);

  PlannerHarness temporal(PlannerOptions(PrimaryIndexKind::kTemporal));
  QueryPlan rejected;
  EXPECT_FALSE(temporal.planner()
                   .PlanSimilarityCandidates(qmbr, 0.01, nullptr,
                                             "similarity:topk", &rejected)
                   .ok());
}

// Every Plan* method, on every primary layout and with or without the
// shape catalog, emits windows in strictly increasing key order that are
// pairwise disjoint: the contract MultiScan's seek elision relies on.
TEST(PlannerTest, WindowsAreStrictlyIncreasingAndDisjoint) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto data = traj::Generate(spec, 200, 5);
  const traj::Trajectory& probe = data[0];
  const geo::MBR small = probe.ComputeMBR();
  const geo::MBR large{116.30, 39.85, 116.50, 39.99};
  const int64_t ts = probe.start_time();
  const int64_t te = ts + 3 * 3600;
  bool saw_st_fine = false;
  for (bool use_cache : {false, true}) {
    for (PrimaryIndexKind primary :
         {PrimaryIndexKind::kTemporal, PrimaryIndexKind::kST,
          PrimaryIndexKind::kSpatial}) {
      TManOptions options = PlannerOptions(primary);
      options.use_index_cache = use_cache;
      // Few tr values per query, so the small ST query takes the fine plan.
      options.tr.max_periods = 4;
      PlannerHarness h(options);
      h.Register(data);
      const QueryPlanner& planner = h.planner();

      std::vector<QueryPlan> plans;
      auto plan = [&plans](const Status& s) {
        if (s.ok()) return;
        EXPECT_EQ(s.code(), Status::Code::kNotSupported) << s.ToString();
        plans.pop_back();
      };
      plans.emplace_back();
      plan(planner.PlanTemporalRange(ts, te, &plans.back()));
      plans.emplace_back();
      plan(planner.PlanIDTemporal(probe.oid, ts, te, &plans.back()));
      for (const geo::MBR& rect : {small, large}) {
        plans.emplace_back();
        plan(planner.PlanSpatialRange(rect, &plans.back()));
        plans.emplace_back();
        plan(planner.PlanSpatioTemporalRange(rect, ts, te, &plans.back()));
        plans.emplace_back();
        plan(planner.PlanSimilarityCandidates(rect, 0.01, nullptr,
                                              "similarity:topk",
                                              &plans.back()));
      }
      EXPECT_GE(plans.size(), primary == PrimaryIndexKind::kSpatial ? 8u : 4u);

      for (const QueryPlan& p : plans) {
        if (p.name == "primary:st-fine") saw_st_fine = true;
        ASSERT_FALSE(p.windows.empty()) << p.name;
        for (size_t i = 1; i < p.windows.size(); i++) {
          const cluster::KeyRange& prev = p.windows[i - 1];
          const cluster::KeyRange& cur = p.windows[i];
          EXPECT_LT(prev.start, cur.start) << p.name << " window " << i;
          // Disjoint: the previous window ends strictly before the next
          // starts (an unbounded window could only be last).
          ASSERT_FALSE(prev.end.empty()) << p.name << " window " << i - 1;
          EXPECT_LT(prev.end, cur.start) << p.name << " window " << i;
        }
      }
    }
  }
  // The fine ST plan crosses several tr values with several shards, the
  // one producer whose natural loop order is not key order.
  EXPECT_TRUE(saw_st_fine);
}

// ---------------------------------------------------------------------------
// Pipeline tests: planner + streaming executor against a loaded instance.

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new traj::DatasetSpec(traj::TDriveLikeSpec());
    data_ = new std::vector<traj::Trajectory>(traj::Generate(*spec_, 300, 42));
    tman_ = new std::unique_ptr<TMan>;
    ASSERT_TRUE(
        TMan::Open(SmallOptions(*spec_), TestDir("pipeline"), tman_).ok());
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

traj::DatasetSpec* PipelineTest::spec_ = nullptr;
std::vector<traj::Trajectory>* PipelineTest::data_ = nullptr;
std::unique_ptr<TMan>* PipelineTest::tman_ = nullptr;

// The six query types answered through the plan -> streaming-executor
// pipeline must match an exhaustive in-memory evaluation.
TEST_F(PipelineTest, SixQueriesMatchBruteForce) {
  TMan* tman = tman_->get();

  // 1. Temporal range (through the TR secondary on the spatial primary).
  const int64_t ts = spec_->t0 + 3600;
  const int64_t te = spec_->t0 + 8 * 3600;
  {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->TemporalRangeQuery(ts, te, &results).ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.IntersectsTimeRange(ts, te)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected);
  }

  // 2. Spatial range.
  const geo::MBR rect{116.30, 39.85, 116.50, 40.00};
  {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->SpatialRangeQuery(rect, &results).ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (geo::PolylineIntersectsRect(t.points, rect)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected);
  }

  // 3. Spatio-temporal range.
  {
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->SpatioTemporalRangeQuery(rect, ts, te, &results).ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.IntersectsTimeRange(ts, te) &&
          geo::PolylineIntersectsRect(t.points, rect)) {
        expected.insert(t.tid);
      }
    }
    EXPECT_EQ(Tids(results), expected);
  }

  // 4. ID-temporal.
  {
    const std::string oid = (*data_)[0].oid;
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->IDTemporalQuery(oid, ts, te, &results).ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (t.oid == oid && t.IntersectsTimeRange(ts, te)) expected.insert(t.tid);
    }
    EXPECT_EQ(Tids(results), expected);
  }

  // 5. Threshold similarity.
  const traj::Trajectory& query = (*data_)[11];
  const auto measure = geo::SimilarityMeasure::kHausdorff;
  {
    const double threshold = 0.02;
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(
        tman->ThresholdSimilarityQuery(query, measure, threshold, &results)
            .ok());
    std::set<std::string> expected;
    for (const auto& t : *data_) {
      if (geo::ExactDistance(measure, query.points, t.points) <= threshold) {
        expected.insert(t.tid);
      }
    }
    EXPECT_EQ(Tids(results), expected);
  }

  // 6. Top-k similarity (nearest first, query itself excluded).
  {
    const size_t k = 5;
    std::vector<traj::Trajectory> results;
    ASSERT_TRUE(tman->TopKSimilarityQuery(query, measure, k, &results).ok());
    ASSERT_EQ(results.size(), k);

    std::vector<std::pair<double, std::string>> scored;
    for (const auto& t : *data_) {
      if (t.tid == query.tid) continue;
      scored.emplace_back(geo::ExactDistance(measure, query.points, t.points),
                          t.tid);
    }
    std::sort(scored.begin(), scored.end());
    double prev = 0;
    for (size_t i = 0; i < k; i++) {
      const double d =
          geo::ExactDistance(measure, query.points, results[i].points);
      EXPECT_NEAR(d, scored[i].first, 1e-9) << "rank " << i;
      EXPECT_GE(d, prev);  // nearest first
      prev = d;
    }
  }
}

// Every query and count must report which plan ran and how long planning
// and execution took.
TEST_F(PipelineTest, EveryQueryReportsPlanAndTimings) {
  TMan* tman = tman_->get();
  const int64_t ts = spec_->t0;
  const int64_t te = spec_->t0 + 6 * 3600;
  const geo::MBR rect{116.30, 39.85, 116.50, 40.00};
  const traj::Trajectory& query = (*data_)[3];
  std::vector<traj::Trajectory> out;
  uint64_t count = 0;

  std::vector<QueryStats> all(9);
  ASSERT_TRUE(tman->TemporalRangeQuery(ts, te, &out, &all[0]).ok());
  ASSERT_TRUE(tman->SpatialRangeQuery(rect, &out, &all[1]).ok());
  ASSERT_TRUE(tman->SpatioTemporalRangeQuery(rect, ts, te, &out, &all[2]).ok());
  ASSERT_TRUE(
      tman->IDTemporalQuery((*data_)[0].oid, ts, te, &out, &all[3]).ok());
  ASSERT_TRUE(tman->ThresholdSimilarityQuery(
                      query, geo::SimilarityMeasure::kFrechet, 0.01, &out,
                      &all[4])
                  .ok());
  ASSERT_TRUE(tman->TopKSimilarityQuery(query, geo::SimilarityMeasure::kFrechet,
                                        3, &out, &all[5])
                  .ok());
  ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &count, &all[6]).ok());
  ASSERT_TRUE(tman->SpatialRangeCount(rect, &count, &all[7]).ok());
  ASSERT_TRUE(
      tman->SpatioTemporalRangeCount(rect, ts, te, &count, &all[8]).ok());

  for (size_t i = 0; i < all.size(); i++) {
    EXPECT_FALSE(all[i].plan.empty()) << "query " << i;
    EXPECT_GE(all[i].planning_ms, 0.0) << "query " << i;
    EXPECT_GT(all[i].execution_ms, 0.0) << "query " << i;
    EXPECT_GT(all[i].windows, 0u) << "query " << i;
  }
}

// The expanding-radius top-k search must stop scanning mid-round once the
// heap cannot improve: with many exact twins of the query, the k-th bound
// hits the round cutoff after k rows and the sink terminates every
// in-flight region scan.
TEST(TopKEarlyStopTest, SinkCutoffStopsScanMidRound) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = SmallOptions(spec);
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, TestDir("topk_stop"), &tman).ok());

  // One query trajectory and 200 identical twins (distance 0 to the query).
  traj::Trajectory query;
  query.oid = "probe";
  query.tid = "probe-t0";
  for (int i = 0; i < 20; i++) {
    query.points.push_back(geo::TimedPoint{116.40 + 0.0001 * i,
                                           39.90 + 0.0001 * i,
                                           spec.t0 + 30 * i});
  }
  std::vector<traj::Trajectory> rows;
  rows.push_back(query);
  for (int i = 0; i < 200; i++) {
    traj::Trajectory twin = query;
    twin.oid = "twin-" + std::to_string(i);
    twin.tid = twin.oid + "-t0";
    rows.push_back(std::move(twin));
  }
  ASSERT_TRUE(tman->BulkLoad(rows).ok());
  ASSERT_TRUE(tman->Flush().ok());

  QueryStats stats;
  std::vector<traj::Trajectory> results;
  ASSERT_TRUE(tman->TopKSimilarityQuery(query, geo::SimilarityMeasure::kDTW, 2,
                                        &results, &stats)
                  .ok());
  ASSERT_EQ(results.size(), 2u);
  for (const auto& t : results) {
    EXPECT_EQ(geo::ExactDistance(geo::SimilarityMeasure::kDTW, query.points,
                                 t.points),
              0.0);
  }
  // All 201 rows fall inside the first search radius, but the sink stops the
  // scan once two distance-0 results reach the cutoff — most rows must never
  // have been scanned.
  EXPECT_EQ(stats.plan, "similarity:topk");
  EXPECT_LT(stats.candidates, rows.size() / 2);
  EXPECT_GE(stats.candidates, 2u);
}

// ---------------------------------------------------------------------------
// TopKSink bound order: one fork, fed rows farthest first, verifies its
// buffered rows nearest bound first.

constexpr size_t kTestDPFeatures = 8;

traj::Trajectory BoundOrderProbe() {
  traj::Trajectory query;
  query.oid = "probe";
  query.tid = "probe-t0";
  for (int i = 0; i < 20; i++) {
    query.points.push_back(
        geo::TimedPoint{116.40 + 0.0001 * i, 39.90 + 0.0001 * (i % 5),
                        1700000000 + 30 * i});
  }
  return query;
}

// `n` copies of `query`, the i-th shifted (i + 1) * 0.01 degrees east, so
// its Fréchet distance to the query and its DP lower bound both grow with
// i. Returned farthest first, each encoded as a primary-table value.
struct ShiftedRows {
  std::vector<traj::Trajectory> copies;
  std::vector<std::string> values;
};

ShiftedRows FarthestFirst(const traj::Trajectory& query, size_t n) {
  ShiftedRows rows;
  for (size_t i = n; i-- > 0;) {
    traj::Trajectory copy = query;
    copy.oid = "copy-" + std::to_string(i);
    copy.tid = copy.oid + "-t0";
    for (geo::TimedPoint& p : copy.points) p.x += 0.01 * (i + 1);
    std::string value;
    EXPECT_TRUE(EncodeRecord(copy, kTestDPFeatures, &value));
    rows.copies.push_back(std::move(copy));
    rows.values.push_back(std::move(value));
  }
  return rows;
}

// Feeds every row into `fork`, farthest first; checks each is accepted.
void FeedFarthestFirst(kv::RowSink* fork, const ShiftedRows& rows) {
  for (size_t i = 0; i < rows.values.size(); i++) {
    EXPECT_TRUE(fork->Accept(rows.copies[i].tid, rows.values[i])) << i;
  }
}

// The k nearest copies by exact distance, nearest first.
std::vector<std::string> BruteForceTopK(const traj::Trajectory& query,
                                        const ShiftedRows& rows,
                                        geo::SimilarityMeasure measure,
                                        size_t k) {
  std::vector<std::pair<double, std::string>> scored;
  for (const traj::Trajectory& t : rows.copies) {
    scored.emplace_back(geo::ExactDistance(measure, query.points, t.points),
                        t.tid);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::string> tids;
  for (size_t i = 0; i < k && i < scored.size(); i++) {
    tids.push_back(scored[i].second);
  }
  return tids;
}

std::vector<std::string> TidsInOrder(const std::vector<traj::Trajectory>& v) {
  std::vector<std::string> tids;
  for (const traj::Trajectory& t : v) tids.push_back(t.tid);
  return tids;
}

// A streaming fork verifies each of these rows: every row is nearer than
// all before it, so none is ever pruned. Buffered, the fork verifies
// nothing until Finish, then the k nearest bounds and only the rows whose
// bound does not exceed the k-th distance.
TEST(TopKBoundOrderTest, FinishVerifiesBufferedRowsNearestBoundFirst) {
  const traj::Trajectory query = BoundOrderProbe();
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, kTestDPFeatures);
  const size_t n = 200;
  ASSERT_LT(n, TopKSink::kForkBufferRows);
  const ShiftedRows rows = FarthestFirst(query, n);
  const geo::SimilarityMeasure measure = geo::SimilarityMeasure::kFrechet;

  for (const size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
    SCOPED_TRACE("k " + std::to_string(k));
    QueryStats stats;
    TopKSink sink(&query, measure, k, query_features, &stats);
    std::unique_ptr<kv::RowSink> fork = sink.Fork();
    FeedFarthestFirst(fork.get(), rows);
    EXPECT_TRUE(std::isinf(sink.KthBound())) << "verified before Finish";
    sink.Finish(fork.get());
    sink.Join(fork.get());
    ASSERT_TRUE(sink.status().ok());

    const double kth = sink.KthBound();
    const std::vector<traj::Trajectory> results = sink.TakeResults();
    EXPECT_EQ(TidsInOrder(results), BruteForceTopK(query, rows, measure, k));
    size_t within = 0;
    for (const traj::Trajectory& t : rows.copies) {
      const double bound = geo::DPFeatureLowerBound(
          query_features, geo::ExtractDPFeatures(t.points, kTestDPFeatures));
      if (bound <= kth) within++;
    }
    EXPECT_GE(stats.exact_distance_computations, k);
    EXPECT_LE(stats.exact_distance_computations, k + within);
    EXPECT_LT(stats.exact_distance_computations, n);
  }
}

// More rows than the buffer holds: the fork drains mid-scan whenever the
// buffer fills, so the k-best fills before Finish, and the answer is still
// exact.
TEST(TopKBoundOrderTest, FullBufferDrainsMidScan) {
  const traj::Trajectory query = BoundOrderProbe();
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, kTestDPFeatures);
  const size_t n = 2 * TopKSink::kForkBufferRows + 88;
  const ShiftedRows rows = FarthestFirst(query, n);
  const geo::SimilarityMeasure measure = geo::SimilarityMeasure::kFrechet;
  const size_t k = 5;

  QueryStats stats;
  TopKSink sink(&query, measure, k, query_features, &stats);
  std::unique_ptr<kv::RowSink> fork = sink.Fork();
  FeedFarthestFirst(fork.get(), rows);
  EXPECT_FALSE(std::isinf(sink.KthBound())) << "no mid-scan drain";
  sink.Finish(fork.get());
  sink.Join(fork.get());
  ASSERT_TRUE(sink.status().ok());
  EXPECT_EQ(TidsInOrder(sink.TakeResults()),
            BruteForceTopK(query, rows, measure, k));
  // Each of the three drains verifies its k nearest bounds first; the
  // rows behind them are pruned by the k-th distance.
  EXPECT_GE(stats.exact_distance_computations, k);
  EXPECT_LT(stats.exact_distance_computations, n / 10);
}

// A buffered row whose header and DP features decode but whose point
// column does not still fails the query with Corruption once verified.
TEST(TopKBoundOrderTest, CorruptBufferedRowFailsWithCorruption) {
  const traj::Trajectory query = BoundOrderProbe();
  ShiftedRows rows = FarthestFirst(query, 10);
  // The nearest copy (fed last) gets a point column that claims 0xFFFFFFF0
  // points.
  std::string& value = rows.values.back();
  RecordHeader header;
  ASSERT_TRUE(DecodeRecordHeader(value, &header));
  Slice columns = header.points_blob;
  uint32_t count = 0;
  ASSERT_TRUE(GetVarint32(&columns, &count));
  std::string points;
  PutVarint32(&points, 0xFFFFFFF0u);
  points.append(columns.data(), columns.size());
  const size_t points_at =
      static_cast<size_t>(header.points_blob.data() - value.data()) -
      VarintLength(header.points_blob.size());
  std::string corrupt = value.substr(0, points_at);
  PutLengthPrefixedSlice(&corrupt, points);
  PutLengthPrefixedSlice(&corrupt, header.dp_blob);
  value = corrupt;

  TopKSink sink(&query, geo::SimilarityMeasure::kFrechet, 3,
                geo::ExtractDPFeatures(query.points, kTestDPFeatures),
                nullptr);
  std::unique_ptr<kv::RowSink> fork = sink.Fork();
  FeedFarthestFirst(fork.get(), rows);  // buffered: nothing verified yet
  ASSERT_TRUE(sink.status().ok());
  sink.Finish(fork.get());
  sink.Join(fork.get());
  EXPECT_TRUE(sink.status().IsCorruption()) << sink.status().ToString();
}

}  // namespace
}  // namespace tman::core
