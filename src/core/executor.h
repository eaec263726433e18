#ifndef TMAN_CORE_EXECUTOR_H_
#define TMAN_CORE_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/planner.h"
#include "core/query_stats.h"
#include "core/record.h"
#include "geo/similarity.h"
#include "kvstore/scan_filter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/trajectory.h"

namespace tman::core {

// Streaming executor for QueryPlans. Rows flow region-scan -> merge ->
// decode -> accumulate through a kv::RowSink without intermediate vector
// materialization; a sink declining a row terminates every in-flight region
// scan (global limits, top-k cutoffs).
class Executor {
 public:
  // When `registry` is set, rows streamed out of the storage layer and
  // early-termination cutoffs are published under tman_exec_*.
  Executor(cluster::ClusterTable* primary, cluster::ClusterTable* tr_table,
           cluster::ClusterTable* idt_table, bool push_down,
           obs::MetricsRegistry* registry = nullptr);

  // Streams the plan's matching primary rows into `sink`, honoring the
  // plan's push-down filter and global limit. Fills stats->windows and
  // stats->candidates; timing is the caller's concern. Errors raised by the
  // sink itself (e.g. decode failures) are returned from here. When `span`
  // is set, a scan child span with per-region grandchildren is attached.
  Status Execute(const QueryPlan& plan, kv::RowSink* sink, QueryStats* stats,
                 obs::TraceSpan* span = nullptr);

 private:
  Status ExecutePrimaryScan(const QueryPlan& plan, kv::RowSink* sink,
                            QueryStats* stats, obs::TraceSpan* span);
  Status ExecuteSecondaryFetch(const QueryPlan& plan, kv::RowSink* sink,
                               QueryStats* stats, obs::TraceSpan* span);
  // Folds a scan's per-region failure accounting into the query result:
  // retries/regions_failed accumulate into `stats`, and when the plan
  // allows degraded execution and a strict subset of regions failed, the
  // scan error is swallowed and the stats are marked degraded. All regions
  // failing stays an error even in degraded mode.
  Status ResolveOutcome(Status s, const QueryPlan& plan,
                        const cluster::ScanOutcome& outcome, QueryStats* stats);
  cluster::ClusterTable* Table(PlanTable table) const;

  cluster::ClusterTable* primary_;
  cluster::ClusterTable* tr_table_;
  cluster::ClusterTable* idt_table_;
  bool push_down_;
  obs::Counter* rows_streamed_ = nullptr;
  obs::Counter* early_terminations_ = nullptr;
};

// --- Sinks -----------------------------------------------------------------

// Discards every row. Count plans (whose CountingFilter rejects all rows in
// the storage layer) execute against this sink.
class NullSink : public kv::RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    (void)value;
    return true;
  }
};

// Decodes each streamed record into a trajectory. A `limit` of 0 means
// unlimited; otherwise the sink stops the scan after `limit` rows.
class DecodeTrajectoriesSink : public kv::RowSink {
 public:
  explicit DecodeTrajectoriesSink(std::vector<traj::Trajectory>* out,
                                  size_t limit = 0)
      : out_(out), limit_(limit) {}

  bool Accept(const Slice& key, const Slice& value) override;

  const Status& status() const { return status_; }
  uint64_t accepted() const { return accepted_; }

 private:
  std::vector<traj::Trajectory>* out_;
  size_t limit_;
  uint64_t accepted_ = 0;
  Status status_;
};

// Exact verification stage of the threshold similarity query: rows passing
// the pushed-down SimilarityFilter stream in; survivors of the exact
// distance test accumulate into `out`.
class ThresholdVerifySink : public kv::RowSink {
 public:
  ThresholdVerifySink(const traj::Trajectory* query,
                      geo::SimilarityMeasure measure, double threshold,
                      std::vector<traj::Trajectory>* out, QueryStats* stats)
      : query_(query),
        measure_(measure),
        threshold_(threshold),
        out_(out),
        stats_(stats) {}

  bool Accept(const Slice& key, const Slice& value) override;

  const Status& status() const { return status_; }
  uint64_t accepted() const { return accepted_; }

 private:
  const traj::Trajectory* query_;
  geo::SimilarityMeasure measure_;
  double threshold_;
  std::vector<traj::Trajectory>* out_;
  QueryStats* stats_;
  uint64_t accepted_ = 0;
  Status status_;
};

// Accumulator of the expanding-radius top-k search. Maintains the k best
// trajectories seen so far (heap cutoff: rows that cannot beat the k-th
// bound are discarded on the header alone). Accept returns false — stopping
// the scan — once the heap is full and the k-th distance is at or below
// `cutoff`: every unseen row lies outside the previous search radius
// (= cutoff), so none can improve the result. A row that fails to decode
// also stops the scan and sets status().
class TopKSink : public kv::RowSink {
 public:
  TopKSink(const traj::Trajectory* query, geo::SimilarityMeasure measure,
           size_t k, geo::DPFeatures query_features, QueryStats* stats)
      : query_(query),
        measure_(measure),
        k_(k),
        query_features_(std::move(query_features)),
        stats_(stats) {}

  bool Accept(const Slice& key, const Slice& value) override;

  // Distances at or below the cutoff cannot be beaten by rows the current
  // round has not yet streamed (they all lie beyond the previous radius).
  void set_cutoff(double cutoff) { cutoff_ = cutoff; }

  const Status& status() const { return status_; }

  bool Full() const { return best_.size() >= k_; }
  double KthBound() const {
    return Full() ? best_[k_ - 1].distance
                  : std::numeric_limits<double>::infinity();
  }

  // Moves the accumulated results out, nearest first.
  std::vector<traj::Trajectory> TakeResults();

 private:
  struct Scored {
    double distance;
    traj::Trajectory trajectory;
  };

  const traj::Trajectory* query_;
  geo::SimilarityMeasure measure_;
  size_t k_;
  geo::DPFeatures query_features_;
  QueryStats* stats_;
  double cutoff_ = 0;
  std::vector<Scored> best_;  // kept sorted ascending by distance
  std::unordered_set<std::string> seen_;
  Status status_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_EXECUTOR_H_
