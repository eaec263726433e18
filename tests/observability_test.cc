// End-to-end observability tests: a TMan instance opened with a metrics
// registry runs a mixed workload, then (a) a traced query's span tree is
// cross-checked against its QueryStats, (b) the Prometheus scrape shows
// nonzero instruments from every layer, and (c) planning/execution timings
// are consistent across all query types.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/tman.h"
#include "geo/similarity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/generator.h"

namespace tman::core {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_obs_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// One loaded instance with metrics attached, shared by all tests; queries
// only add to counters, so per-test assertions stay order-independent by
// checking "nonzero"/structure rather than exact totals.
class ObservabilityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = new obs::MetricsRegistry();
    spec_ = new traj::DatasetSpec(traj::TDriveLikeSpec());
    data_ = new std::vector<traj::Trajectory>(traj::Generate(*spec_, 300, 42));
    tman_ = new std::unique_ptr<TMan>;

    TManOptions options;
    options.bounds = spec_->bounds;
    options.tr.origin = 0;
    options.tr.period_seconds = 3600;
    options.tr.max_periods = 24;
    options.xzt.origin = 0;
    options.tshape.max_resolution = 15;
    options.num_shards = 4;
    options.num_servers = 3;
    options.genetic.generations = 10;
    // Tiny write buffer so the Inserts trigger real flushes (and usually
    // compactions) that the registry must observe. The bulk load ingests
    // one file per region and table instead.
    options.kv.write_buffer_size = 64 * 1024;
    options.kv.metrics = registry_;

    ASSERT_TRUE(TMan::Open(options, TestDir("e2e"), tman_).ok());
    const std::vector<traj::Trajectory> bulk(data_->begin(),
                                             data_->begin() + 200);
    const std::vector<traj::Trajectory> inserts(data_->begin() + 200,
                                                data_->end());
    ASSERT_TRUE((*tman_)->BulkLoad(bulk).ok());
    ASSERT_TRUE((*tman_)->Insert(inserts).ok());
    ASSERT_TRUE((*tman_)->Flush().ok());
  }

  static void TearDownTestSuite() {
    delete tman_;
    delete data_;
    delete spec_;
    delete registry_;
    tman_ = nullptr;
    data_ = nullptr;
    spec_ = nullptr;
    registry_ = nullptr;
  }

  static uint64_t CounterValue(const std::string& name) {
    return registry_->GetCounter(name)->value();
  }

  static obs::MetricsRegistry* registry_;
  static traj::DatasetSpec* spec_;
  static std::vector<traj::Trajectory>* data_;
  static std::unique_ptr<TMan>* tman_;
};

obs::MetricsRegistry* ObservabilityTest::registry_ = nullptr;
traj::DatasetSpec* ObservabilityTest::spec_ = nullptr;
std::vector<traj::Trajectory>* ObservabilityTest::data_ = nullptr;
std::unique_ptr<TMan>* ObservabilityTest::tman_ = nullptr;

TEST_F(ObservabilityTest, UntracedQueryLeavesNoTrace) {
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->TemporalRangeQuery(spec_->t0, spec_->t0 + 6 * 3600,
                                       &results, &stats)
                  .ok());
  EXPECT_EQ(stats.trace, nullptr);
}

TEST_F(ObservabilityTest, TracedSTRQMatchesQueryStats) {
  const geo::MBR window{116.25, 39.8, 116.55, 40.0};
  const int64_t ts = spec_->t0 + 3600;
  const int64_t te = ts + 6 * 3600;

  QueryOptions qopts;
  qopts.trace = true;
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->SpatioTemporalRangeQuery(window, ts, te, &results, &stats,
                                             qopts)
                  .ok());
  ASSERT_NE(stats.trace, nullptr);
  const obs::TraceSpan& root = *stats.trace;
  EXPECT_EQ(root.name(), "SpatioTemporalRangeQuery");
  EXPECT_TRUE(root.ended());

  // Root annotations mirror the stats the caller got.
  EXPECT_EQ(root.GetAnnotationString("plan"), stats.plan);
  EXPECT_DOUBLE_EQ(root.GetAnnotation("candidates"),
                   static_cast<double>(stats.candidates));
  EXPECT_DOUBLE_EQ(root.GetAnnotation("results"),
                   static_cast<double>(stats.results));
  EXPECT_EQ(stats.results, results.size());

  // Stage structure: planning + execute (+ scan under execute).
  const obs::TraceSpan* planning = root.Find("planning");
  const obs::TraceSpan* execute = root.Find("execute");
  ASSERT_NE(planning, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_FALSE(execute->children().empty());
  const obs::TraceSpan* scan = execute->children()[0].get();
  EXPECT_EQ(scan->name().rfind("scan ", 0), 0u) << scan->name();
  EXPECT_DOUBLE_EQ(scan->GetAnnotation("windows"),
                   static_cast<double>(stats.windows));
  EXPECT_DOUBLE_EQ(scan->GetAnnotation("rows_scanned"),
                   static_cast<double>(stats.candidates));
  EXPECT_FALSE(scan->children().empty());  // per-region breakdown

  // Timing consistency: the planning span is what planning_ms measured,
  // the stage durations sum to the root (within scheduling tolerance),
  // and the root is what execution_ms measured.
  EXPECT_NEAR(planning->duration_ms(), stats.planning_ms,
              0.2 + 0.1 * stats.planning_ms);
  EXPECT_LE(stats.planning_ms, stats.execution_ms);
  const double stage_sum = planning->duration_ms() + execute->duration_ms();
  EXPECT_LE(stage_sum, stats.execution_ms * 1.05 + 0.5);
  EXPECT_GE(stage_sum, stats.execution_ms * 0.5 - 0.5);
  EXPECT_NEAR(root.duration_ms(), stats.execution_ms,
              0.5 + 0.1 * stats.execution_ms);

  // The EXPLAIN ANALYZE report renders every stage.
  const std::string report = root.Render();
  EXPECT_NE(report.find("SpatioTemporalRangeQuery  (actual time="),
            std::string::npos);
  EXPECT_NE(report.find("-> planning"), std::string::npos);
  EXPECT_NE(report.find("-> execute"), std::string::npos);
  EXPECT_NE(report.find("-> scan "), std::string::npos);
  EXPECT_NE(report.find("-> region "), std::string::npos);
}

TEST_F(ObservabilityTest, TracedTopKHasPerRoundSpans) {
  QueryOptions qopts;
  qopts.trace = true;
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->TopKSimilarityQuery((*data_)[3],
                                        geo::SimilarityMeasure::kFrechet, 3,
                                        &results, &stats, qopts)
                  .ok());
  ASSERT_NE(stats.trace, nullptr);
  const obs::TraceSpan* round0 = stats.trace->Find("round 0");
  ASSERT_NE(round0, nullptr);
  EXPECT_NE(round0->Find("planning"), nullptr);
  EXPECT_NE(round0->Find("execute"), nullptr);
  EXPECT_GT(round0->GetAnnotation("radius", -1), 0);
}

TEST_F(ObservabilityTest, TracedCountQuery) {
  QueryOptions qopts;
  qopts.trace = true;
  uint64_t count = 0;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->SpatioTemporalRangeCount(geo::MBR{116.3, 39.85, 116.5,
                                                      39.95},
                                             spec_->t0, spec_->t0 + 12 * 3600,
                                             &count, &stats, qopts)
                  .ok());
  ASSERT_NE(stats.trace, nullptr);
  const obs::TraceSpan* execute = stats.trace->Find("execute");
  ASSERT_NE(execute, nullptr);
  EXPECT_DOUBLE_EQ(execute->GetAnnotation("count"),
                   static_cast<double>(count));
  EXPECT_EQ(stats.results, count);
}

TEST_F(ObservabilityTest, TemporalCountOnSecondaryIndexIsOneCountQuery) {
  // The store is spatial-primary, so a temporal count goes through tr_idx
  // and counts the primary rows it fetches: one count query, no TRQ.
  obs::Histogram* trq =
      registry_->GetHistogram("tman_core_query_micros{type=\"temporal_range\"}");
  obs::Histogram* counts =
      registry_->GetHistogram("tman_core_query_micros{type=\"count\"}");
  const uint64_t trq_before = trq->count();
  const uint64_t counts_before = counts->count();

  QueryOptions qopts;
  qopts.trace = true;
  uint64_t count = 0;
  QueryStats stats;
  ASSERT_TRUE((*tman_)
                  ->TemporalRangeCount(spec_->t0, spec_->t0 + 6 * 3600,
                                       &count, &stats, qopts)
                  .ok());
  EXPECT_EQ(trq->count(), trq_before);
  EXPECT_EQ(counts->count(), counts_before + 1);

  ASSERT_NE(stats.trace, nullptr);
  EXPECT_EQ(stats.trace->name(), "TemporalRangeCount");
  EXPECT_NE(stats.trace->Find("scan tr_index"), nullptr);
  EXPECT_EQ(stats.plan, "count:temporal");

  std::vector<traj::Trajectory> results;
  ASSERT_TRUE((*tman_)
                  ->TemporalRangeQuery(spec_->t0, spec_->t0 + 6 * 3600,
                                       &results, nullptr)
                  .ok());
  EXPECT_GT(count, 0u);
  EXPECT_EQ(count, results.size());
}

TEST_F(ObservabilityTest, ScrapeShowsEveryLayer) {
  // Touch each query family once so per-type histograms have samples.
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  (*tman_)->TemporalRangeQuery(spec_->t0, spec_->t0 + 3600, &results, &stats);
  results.clear();
  (*tman_)->SpatialRangeQuery(geo::MBR{116.3, 39.85, 116.5, 39.95}, &results,
                              &stats);
  results.clear();
  (*tman_)->IDTemporalQuery((*data_)[0].oid, spec_->t0,
                            spec_->t0 + 12 * 3600, &results, &stats);
  (*tman_)->PublishMetrics();

  // Layer coverage via live handles: storage engine (the primary table's
  // flushes, and the bulk load's ingests)...
  EXPECT_GT(CounterValue("tman_kv_flushes_total"), 0u);
  EXPECT_GT((*tman_)->primary_table()->GetStorageStats().flush_count, 0u);
  EXPECT_GT(CounterValue("tman_kv_ingest_files_total"), 0u);
  EXPECT_GT(registry_->GetHistogram("tman_kv_write_micros")->count(), 0u);
  // Queries run the batched read path by default, so scans land in the
  // multiscan histogram; plain Scan still has its own.
  EXPECT_GT(registry_->GetHistogram("tman_kv_multiscan_micros")->count(), 0u);
  EXPECT_GT(CounterValue("tman_kv_multiscan_windows_total"), 0u);
  EXPECT_GT(registry_->GetHistogram("tman_kv_flush_micros")->count(), 0u);
  // ...cluster fan-out...
  EXPECT_GT(CounterValue("tman_cluster_scans_total"), 0u);
  EXPECT_GT(registry_->GetHistogram("tman_cluster_scan_micros")->count(), 0u);
  // ...caches...
  EXPECT_GT(CounterValue("tman_index_cache_hits_total") +
                CounterValue("tman_index_cache_misses_total"),
            0u);
  // ...executor and per-query-type latency.
  EXPECT_GT(CounterValue("tman_exec_rows_streamed_total"), 0u);
  EXPECT_GT(registry_
                ->GetHistogram("tman_core_query_micros{type=\"temporal_range\"}")
                ->count(),
            0u);

  // Gauges published point-in-time.
  EXPECT_GT(registry_->GetGauge("tman_storage_sstable_bytes")->value(), 0);

  // And the same instruments appear in the rendered scrape.
  const std::string scrape = registry_->RenderPrometheus();
  EXPECT_NE(scrape.find("tman_kv_get_micros"), std::string::npos);
  EXPECT_NE(scrape.find("tman_kv_flushes_total"), std::string::npos);
  EXPECT_NE(scrape.find("tman_index_cache_hits_total"), std::string::npos);
  EXPECT_NE(scrape.find("tman_cluster_scan_micros_count"), std::string::npos);
  EXPECT_NE(scrape.find("tman_storage_sstable_bytes"), std::string::npos);
  EXPECT_NE(
      scrape.find("tman_core_query_micros_count{type=\"temporal_range\"}"),
      std::string::npos);
}

TEST_F(ObservabilityTest, TimingFieldsConsistentAcrossQueryTypes) {
  const geo::MBR window{116.3, 39.85, 116.5, 39.95};
  auto check = [](const QueryStats& stats, const char* what) {
    EXPECT_GE(stats.planning_ms, 0) << what;
    EXPECT_GT(stats.execution_ms, 0) << what;
    EXPECT_LE(stats.planning_ms, stats.execution_ms) << what;
    EXPECT_FALSE(stats.plan.empty()) << what;
  };

  std::vector<traj::Trajectory> results;
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->TemporalRangeQuery(spec_->t0, spec_->t0 + 3600, &results,
                                         &stats)
                    .ok());
    check(stats, "TRQ");
  }
  results.clear();
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)->SpatialRangeQuery(window, &results, &stats).ok());
    check(stats, "SRQ");
  }
  results.clear();
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->SpatioTemporalRangeQuery(window, spec_->t0,
                                               spec_->t0 + 6 * 3600, &results,
                                               &stats)
                    .ok());
    check(stats, "STRQ");
  }
  results.clear();
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->IDTemporalQuery((*data_)[0].oid, spec_->t0,
                                      spec_->t0 + 12 * 3600, &results, &stats)
                    .ok());
    check(stats, "IDT");
  }
  results.clear();
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->ThresholdSimilarityQuery(
                        (*data_)[5], geo::SimilarityMeasure::kFrechet, 0.05,
                        &results, &stats)
                    .ok());
    check(stats, "threshold-sim");
  }
  results.clear();
  {
    QueryStats stats;
    ASSERT_TRUE((*tman_)
                    ->TopKSimilarityQuery((*data_)[5],
                                          geo::SimilarityMeasure::kFrechet, 2,
                                          &results, &stats)
                    .ok());
    check(stats, "topk-sim");
  }
  {
    QueryStats stats;
    uint64_t count = 0;
    ASSERT_TRUE((*tman_)
                    ->TemporalRangeCount(spec_->t0, spec_->t0 + 3600, &count,
                                         &stats)
                    .ok());
    check(stats, "TR-count");
  }
}

TEST_F(ObservabilityTest, MetricsOffHasNoRegistryDependence) {
  // A second instance without a registry must run the same queries fine
  // (all instrument pointers stay null) and never touch our registry's
  // query histograms.
  const uint64_t before =
      registry_->GetHistogram("tman_core_query_micros{type=\"temporal_range\"}")
          ->count();
  TManOptions options;
  options.bounds = spec_->bounds;
  options.tr.origin = 0;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.num_shards = 2;
  options.num_servers = 2;
  std::unique_ptr<TMan> plain;
  ASSERT_TRUE(TMan::Open(options, TestDir("plain"), &plain).ok());
  std::vector<traj::Trajectory> sample((*data_).begin(), (*data_).begin() + 50);
  ASSERT_TRUE(plain->BulkLoad(sample).ok());
  std::vector<traj::Trajectory> results;
  QueryStats stats;
  ASSERT_TRUE(
      plain->TemporalRangeQuery(spec_->t0, spec_->t0 + 3600, &results, &stats)
          .ok());
  plain->PublishMetrics();  // no-op without a registry
  EXPECT_EQ(
      registry_->GetHistogram("tman_core_query_micros{type=\"temporal_range\"}")
          ->count(),
      before);
}

}  // namespace
}  // namespace tman::core
