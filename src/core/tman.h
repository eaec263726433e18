#ifndef TMAN_CORE_TMAN_H_
#define TMAN_CORE_TMAN_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/region_balancer.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/executor.h"
#include "core/index_cache.h"
#include "core/options.h"
#include "core/planner.h"
#include "core/query_stats.h"
#include "core/record.h"
#include "core/ttl_filter.h"
#include "geo/similarity.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "index/xz2_index.h"
#include "index/xzstar_index.h"
#include "index/xzt_index.h"
#include "kvstore/event_listener.h"
#include "obs/event_log.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "traj/trajectory.h"

namespace tman::core {

// TMan: trajectory storage and query processing over the simulated
// key-value cluster. One instance manages one dataset.
//
// Thread safety: every public method may be called concurrently with any
// other, including writers with writers (BulkLoad, Insert,
// DeleteTrajectory) and writers with queries. Writers agree on shape codes
// through IndexCache::PlaceShapes, which holds the catalog lock across
// reading shapes, picking codes, writing the catalog rows and publishing
// them, so each bitmap gets exactly one code per element. A written row
// never moves: its key is fixed by codes that never change. A query sees each row whose write
// finished before the query started; rows written meanwhile may or may not
// be returned, and are returned only if they match.
class TMan {
 public:
  // Opens the store at `path`, creating it if there is none. A store keeps
  // the options that decide a row key or a shape code (bounds, the index
  // kinds, tshape, tr, xzt, xz2, num_shards, use_index_cache) for life:
  // when they differ from the ones it was created with, Open returns
  // InvalidArgument naming the first that differs. The shape catalog and
  // its occupancy set are read back from the meta table.
  static Status Open(const TManOptions& options, const std::string& path,
                     std::unique_ptr<TMan>* out);

  ~TMan();

  TMan(const TMan&) = delete;
  TMan& operator=(const TMan&) = delete;

  const TManOptions& options() const { return options_; }

  // Bulk load: the shapes of each enlarged element that holds none yet are
  // ordered jointly (§IV-A2(3)) and given codes spread over the element's
  // code space before rows are written; shapes new to an element that
  // holds some are placed as Insert places them. Use for initial loads.
  //
  // Rows go in as one sorted SSTable per region and table
  // (cluster::ClusterTable::BulkLoad). The meta table is flushed first, so
  // the catalog rows and codes they use are durable before they are, and
  // those rows are durable when the call returns. A region that already
  // holds rows in the load's key range, and the primary table when
  // retention_seconds is set (so compaction can expire the rows), takes
  // its rows as Insert writes them (WAL and memtable), durable after the
  // next Flush. Where a batch repeats a trajectory, one row per key is
  // stored.
  Status BulkLoad(const std::vector<traj::Trajectory>& trajectories);

  // Incremental insert (§IV-C's aim without its row moves): an unseen
  // shape takes a free code between its most similar shapes in its
  // element's code order. No written row is rewritten.
  Status Insert(const std::vector<traj::Trajectory>& trajectories);

  // Removes one trajectory (primary row and secondary index rows).
  // Returns NotFound if the object has no such trajectory.
  Status DeleteTrajectory(const std::string& oid, const std::string& tid);

  // Flushes the meta table (the shape catalog) to SSTables, then the
  // primary and secondary tables, so no flushed row outlives its codes.
  Status Flush();
  Status CompactAll();

  // Storage-engine counters aggregated over all tables (primary + indexes
  // + meta): background flush/compaction work and write backpressure.
  StorageStats GetStorageStats();

  // --- Fundamental queries (§V) ---
  //
  // All queries take optional per-call QueryOptions; with qopts.trace set
  // (and a non-null stats) the call fills stats->trace with an EXPLAIN
  // ANALYZE-style span tree.

  Status TemporalRangeQuery(int64_t ts, int64_t te,
                            std::vector<traj::Trajectory>* out,
                            QueryStats* stats = nullptr,
                            const QueryOptions& qopts = {});

  Status SpatialRangeQuery(const geo::MBR& rect,
                           std::vector<traj::Trajectory>* out,
                           QueryStats* stats = nullptr,
                           const QueryOptions& qopts = {});

  Status SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts, int64_t te,
                                  std::vector<traj::Trajectory>* out,
                                  QueryStats* stats = nullptr,
                                  const QueryOptions& qopts = {});

  Status IDTemporalQuery(const std::string& oid, int64_t ts, int64_t te,
                         std::vector<traj::Trajectory>* out,
                         QueryStats* stats = nullptr,
                         const QueryOptions& qopts = {});

  // Trajectories within `threshold` (data-coordinate units) of `query`.
  Status ThresholdSimilarityQuery(const traj::Trajectory& query,
                                  geo::SimilarityMeasure measure,
                                  double threshold,
                                  std::vector<traj::Trajectory>* out,
                                  QueryStats* stats = nullptr,
                                  const QueryOptions& qopts = {});

  // k most similar trajectories, nearest first.
  Status TopKSimilarityQuery(const traj::Trajectory& query,
                             geo::SimilarityMeasure measure, size_t k,
                             std::vector<traj::Trajectory>* out,
                             QueryStats* stats = nullptr,
                             const QueryOptions& qopts = {});

  // --- Aggregation queries (count-only push-down; no rows are shipped
  //     back from the storage layer) ---

  Status TemporalRangeCount(int64_t ts, int64_t te, uint64_t* count,
                            QueryStats* stats = nullptr,
                            const QueryOptions& qopts = {});

  Status SpatialRangeCount(const geo::MBR& rect, uint64_t* count,
                           QueryStats* stats = nullptr,
                           const QueryOptions& qopts = {});

  Status SpatioTemporalRangeCount(const geo::MBR& rect, int64_t ts, int64_t te,
                                  uint64_t* count, QueryStats* stats = nullptr,
                                  const QueryOptions& qopts = {});

  // --- Introspection ---

  // SSTable and memtable bytes of all four tables (primary, tr_idx,
  // idt_idx and the meta table that holds the catalog).
  uint64_t StorageBytes();
  const QueryPlanner* planner() const { return planner_.get(); }
  Executor* executor() { return executor_.get(); }
  IndexCache* index_cache() { return index_cache_.get(); }

  // The region balancer (null unless TManOptions::balancer.enabled).
  cluster::RegionBalancer* balancer() { return balancer_.get(); }
  cluster::ClusterTable* primary_table() { return primary_; }

  // Publishes point-in-time storage gauges (memtable/SSTable bytes) to the
  // registry configured in TManOptions::kv.metrics. Event counters and
  // latency histograms update live and need no publish; call this right
  // before scraping so the gauges are fresh. No-op without a registry.
  // Thread-safe and idempotent: the background reporter, the telemetry
  // server's scrape hook and callers may all invoke it concurrently.
  void PublishMetrics();

  // --- Telemetry plane (TManOptions::telemetry_port >= 0) ---

  // Bound port of the embedded telemetry server, or -1 when disabled.
  // With telemetry_port = 0 this is the ephemeral port the OS picked.
  int telemetry_port() const {
    return telemetry_ != nullptr ? telemetry_->port() : -1;
  }
  obs::TelemetryServer* telemetry() { return telemetry_.get(); }
  obs::EventLog* event_log() { return event_log_.get(); }
  obs::TraceRing* trace_ring() { return trace_ring_.get(); }

  // The /statusz document: build info, uptime, storage gauges, the shape
  // catalog (occupancy set, registered shapes, what Open loaded) and the
  // per-region DB::Stats breakdown of every table, as JSON.
  std::string StatusJson();

  // The /healthz predicate: true while no region store carries a sticky
  // background error; on failure `detail` names the first broken region.
  bool Healthy(std::string* detail);

 private:
  TMan(const TManOptions& options, const std::string& path);

  Status Init();

  // Normalizes points into [0,1]^2.
  std::vector<geo::TimedPoint> Normalize(
      const std::vector<geo::TimedPoint>& points) const;

  // Temporal index value of a trajectory (TR or XZT).
  uint64_t TemporalValue(int64_t ts, int64_t te) const;

  // Checks a batch and computes each trajectory's temporal value and, where
  // it needs no catalog code, its spatial value, on the cluster pool. With
  // TShape and the index cache, `encodings` gets every trajectory's
  // encoding instead, and the caller places its shapes. The first empty
  // trajectory fails the call, named by its tid.
  Status EncodeBatch(const std::vector<traj::Trajectory>& trajectories,
                     std::vector<uint64_t>* temporal_values,
                     std::vector<uint64_t>* spatial_values,
                     std::vector<index::TShapeEncoding>* encodings) const;

  // Primary-table rowkey of a trajectory.
  std::string PrimaryKeyOf(const traj::Trajectory& t, uint64_t temporal_value,
                           uint64_t spatial_value) const;

  // Writes primary + secondary rows for a batch with precomputed values:
  // through BatchPut in chunks, or, for a bulk load, one ClusterTable::
  // BulkLoad per table after the meta table is flushed.
  Status WriteRows(const std::vector<traj::Trajectory>& trajectories,
                   const std::vector<uint64_t>& temporal_values,
                   const std::vector<uint64_t>& spatial_values, bool bulk);

  // Folds a finished plan's cost-model numbers and the planning time into
  // the caller's QueryStats.
  static void MergePlanningStats(const QueryPlan& plan,
                                 const Stopwatch& planning, QueryStats* stats);

  // Runs a count plan: the filter chain is wrapped in a CountingFilter so
  // the storage layer counts matches and ships nothing back.
  Status ExecuteCount(QueryPlan plan, const std::string& count_plan_name,
                      uint64_t* count, QueryStats* stats,
                      obs::TraceSpan* span = nullptr);

  // Records one finished query into its per-type latency histogram
  // ("tman_core_query_micros{type=...}"); null handle = metrics off.
  static void RecordQueryLatency(obs::Histogram* histogram,
                                 const Stopwatch& total) {
    if (histogram != nullptr) histogram->RecordMicros(total.ElapsedMicros());
  }

  // Root span of a query: created when the caller asked for a trace (and
  // passed stats to hand it back through) or when slow-query capture is
  // armed; null otherwise, keeping the untraced fast path allocation-free.
  std::shared_ptr<obs::TraceSpan> MaybeTraceRoot(const QueryOptions& qopts,
                                                 const QueryStats* stats,
                                                 const char* name) const;

  // Ends the root, mirrors the final QueryStats onto it, captures it into
  // the slow-query ring when the query ran past the threshold, and hands
  // the tree to the caller via stats->trace when tracing was requested.
  void FinishTrace(const QueryOptions& qopts,
                   std::shared_ptr<obs::TraceSpan> root, QueryStats* stats,
                   const Stopwatch& total);

  // Background reporter body: republish gauges + rotate the metrics window
  // every telemetry_report_interval_seconds until ~TMan signals stop.
  void ReporterLoop();

  TManOptions options_;
  std::string path_;
  // Members the region stores borrow (event listeners, compaction filter)
  // are declared before cluster_ so they are destroyed after it: store
  // threads may consult them until they join in ~Cluster.
  std::unique_ptr<obs::EventLog> event_log_;
  std::unique_ptr<kv::EventLogListener> event_listener_;
  // Declared before cluster_ so it is destroyed after it: compaction
  // threads owned by the cluster's stores may consult the filter until
  // they join in ~Cluster.
  std::unique_ptr<TtlCompactionFilter> ttl_filter_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::ClusterTable* primary_ = nullptr;
  cluster::ClusterTable* tr_table_ = nullptr;
  cluster::ClusterTable* idt_table_ = nullptr;
  cluster::ClusterTable* meta_table_ = nullptr;
  // Declared after cluster_ so it is destroyed (and its thread joined)
  // before the tables it balances; ~TMan also stops it explicitly.
  std::unique_ptr<cluster::RegionBalancer> balancer_;

  std::unique_ptr<index::TRIndex> tr_index_;
  std::unique_ptr<index::XZTIndex> xzt_index_;
  std::unique_ptr<index::TShapeIndex> tshape_index_;
  std::unique_ptr<index::XZ2Index> xz2_index_;
  std::unique_ptr<index::XZStarIndex> xzstar_index_;

  std::unique_ptr<IndexCache> index_cache_;
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<Executor> executor_;

  // Registry handles, resolved in Init() from TManOptions::kv.metrics
  // (all null = metrics off).
  obs::Histogram* q_temporal_micros_ = nullptr;
  obs::Histogram* q_spatial_micros_ = nullptr;
  obs::Histogram* q_st_micros_ = nullptr;
  obs::Histogram* q_idt_micros_ = nullptr;
  obs::Histogram* q_sim_threshold_micros_ = nullptr;
  obs::Histogram* q_sim_topk_micros_ = nullptr;
  obs::Histogram* q_count_micros_ = nullptr;
  obs::Counter* slow_queries_metric_ = nullptr;

  // Telemetry plane (all unset when telemetry_port < 0). The server and
  // reporter are declared after cluster_ and stopped in ~TMan before any
  // member is torn down, so request handlers never race destruction.
  std::unique_ptr<obs::TraceRing> trace_ring_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  Stopwatch uptime_;
  std::mutex publish_mu_;  // serializes PublishMetrics gauge updates
  std::thread reporter_;
  std::mutex reporter_mu_;
  std::condition_variable reporter_cv_;
  bool reporter_stop_ = false;
};

}  // namespace tman::core

#endif  // TMAN_CORE_TMAN_H_
