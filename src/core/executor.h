#ifndef TMAN_CORE_EXECUTOR_H_
#define TMAN_CORE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
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

// Streaming executor for QueryPlans. Each region task of the scan runs the
// whole per-row pipeline on its own thread — push-down filter, primary
// fetch (secondary-index plans), decode and verification — through its
// fork of the caller's cluster::ScanSink; the forks are joined in region
// key order once every task has ended. A fork declining a row terminates
// every region task (top-k cutoffs, decode errors).
class Executor {
 public:
  // When `registry` is set, rows streamed out of the storage layer and
  // early-termination cutoffs are published under tman_exec_*.
  Executor(cluster::ClusterTable* primary, cluster::ClusterTable* tr_table,
           cluster::ClusterTable* idt_table,
           obs::MetricsRegistry* registry = nullptr);

  // Streams the plan's matching primary rows into `sink`, with the plan's
  // filter pushed down. Fills stats->windows and stats->candidates; timing
  // is the caller's concern. Errors raised by the fetch stage (primary Get
  // failures) are returned from here; the sink keeps its own. When `span`
  // is set, a scan child span with per-region grandchildren is attached.
  Status Execute(const QueryPlan& plan, cluster::ScanSink* sink,
                 QueryStats* stats, obs::TraceSpan* span = nullptr);

 private:
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
  obs::Counter* rows_streamed_ = nullptr;
  obs::Counter* early_terminations_ = nullptr;
};

// --- Sinks -----------------------------------------------------------------
// Every sink forks per region task (cluster::ScanSink): a fork works
// lock-free on its task's thread, with its own output and its own status,
// and the join folds it into the sink in region key order. A fork that hits
// a bad record stops the scan; the join keeps the first error in region
// order. Per-fork counters reach QueryStats at the join, never per row.

// Discards every row. Count plans (whose CountingFilter rejects all rows in
// the storage layer) execute against this sink.
class NullSink : public cluster::ScanSink {
 public:
  std::unique_ptr<kv::RowSink> Fork() override;
  void Join(kv::RowSink* fork) override { (void)fork; }
};

// Decodes each streamed record into a trajectory; results come out in key
// order.
class DecodeTrajectoriesSink : public cluster::ScanSink {
 public:
  explicit DecodeTrajectoriesSink(std::vector<traj::Trajectory>* out)
      : out_(out) {}

  std::unique_ptr<kv::RowSink> Fork() override;
  void Join(kv::RowSink* fork) override;

  const Status& status() const { return status_; }
  uint64_t accepted() const { return accepted_; }

 private:
  std::vector<traj::Trajectory>* out_;
  uint64_t accepted_ = 0;
  Status status_;
};

// Exact verification stage of the threshold similarity query: rows passing
// the pushed-down SimilarityFilter stream in; survivors of the exact
// distance test accumulate into `out`.
class ThresholdVerifySink : public cluster::ScanSink {
 public:
  ThresholdVerifySink(const traj::Trajectory* query,
                      geo::SimilarityMeasure measure, double threshold,
                      std::vector<traj::Trajectory>* out, QueryStats* stats)
      : query_(query),
        measure_(measure),
        threshold_(threshold),
        out_(out),
        stats_(stats) {}

  std::unique_ptr<kv::RowSink> Fork() override;
  void Join(kv::RowSink* fork) override;

  const Status& status() const { return status_; }
  uint64_t accepted() const { return accepted_; }

 private:
  class RegionFork;

  const traj::Trajectory* query_;
  geo::SimilarityMeasure measure_;
  double threshold_;
  std::vector<traj::Trajectory>* out_;
  QueryStats* stats_;
  uint64_t accepted_ = 0;
  Status status_;
};

// Accumulator of the expanding-radius top-k search. Each fork verifies its
// region's rows — point decode and bounded exact distance — against one
// shared k-best: a sorted array of at most k entries under a mutex, taken
// only when a verified candidate beats the published k-th distance. The
// k-th distance is published in an atomic (+inf until k results are held)
// that forks read lock-free for the bound prune, the kernel bound and the
// cutoff stop. The k-best rejects a tid it already holds, so a trajectory
// delivered twice is ranked once.
//
// A fork verifies in ascending lower-bound order (Hjaltason and Samet's
// distance browsing), so the k-th distance tightens before the rows it can
// prune are reached. Per row, the fork parses the header and bounds the row
// by the larger of the header's MBR bound (geo::HeaderLowerBound) and the
// DP-feature bound read in place, and then
//   - drops the row if its bound exceeds the k-th distance;
//   - verifies it at once if its bound is at or below `cutoff` (it would be
//     verified anyway unless the round stops first);
//   - otherwise copies it into the fork's buffer of kForkBufferRows rows.
// When the buffer fills, and at Finish, the fork sorts it by bound and
// verifies in that order, stopping at the first bound above the k-th
// distance or once the k-th distance reaches the cutoff.
//
// A fork declines a row — stopping the scan — once the k-th distance is at
// or below `cutoff`: every row the round has yet to deliver lies beyond the
// previous search radius (= cutoff), and every buffered row's bound exceeds
// the cutoff, so none can improve the result.
class TopKSink : public cluster::ScanSink {
 public:
  // Rows a fork holds back for bound-ordered verification before it drains
  // them mid-scan.
  static constexpr size_t kForkBufferRows = 256;

  TopKSink(const traj::Trajectory* query, geo::SimilarityMeasure measure,
           size_t k, geo::DPFeatures query_features, QueryStats* stats)
      : query_(query),
        measure_(measure),
        k_(k),
        query_features_(std::move(query_features)),
        stats_(stats) {}

  std::unique_ptr<kv::RowSink> Fork() override;
  // Verifies the fork's buffered rows in bound order.
  void Finish(kv::RowSink* fork) override;
  void Join(kv::RowSink* fork) override;

  // Distances at or below the cutoff cannot be beaten by rows the current
  // round has not yet streamed (they all lie beyond the previous radius).
  // Set between rounds, never while a scan runs.
  void set_cutoff(double cutoff) { cutoff_ = cutoff; }

  const Status& status() const { return status_; }

  // The k-th best distance so far; +inf until k results are held.
  double KthBound() const { return kth_.load(std::memory_order_acquire); }

  // Moves the accumulated results out, nearest first.
  std::vector<traj::Trajectory> TakeResults();

 private:
  class RegionFork;

  struct Scored {
    double distance;
    traj::Trajectory trajectory;
  };

  // Inserts a verified candidate unless it no longer beats the k-th
  // distance or its tid is already held, and publishes the new k-th.
  void Offer(double distance, traj::Trajectory trajectory);

  const traj::Trajectory* query_;
  geo::SimilarityMeasure measure_;
  size_t k_;
  geo::DPFeatures query_features_;
  QueryStats* stats_;
  double cutoff_ = 0;
  std::mutex mu_;
  std::vector<Scored> best_;  // guarded by mu_; sorted ascending, at most k
  std::atomic<double> kth_{std::numeric_limits<double>::infinity()};
  Status status_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_EXECUTOR_H_
