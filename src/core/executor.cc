#include "core/executor.h"

#include <algorithm>

namespace tman::core {

Executor::Executor(cluster::ClusterTable* primary,
                   cluster::ClusterTable* tr_table,
                   cluster::ClusterTable* idt_table, bool push_down,
                   obs::MetricsRegistry* registry)
    : primary_(primary),
      tr_table_(tr_table),
      idt_table_(idt_table),
      push_down_(push_down) {
  if (registry != nullptr) {
    rows_streamed_ = registry->GetCounter("tman_exec_rows_streamed_total");
    early_terminations_ =
        registry->GetCounter("tman_exec_early_terminations_total");
  }
}

Status Executor::ResolveOutcome(Status s, const QueryPlan& plan,
                                const cluster::ScanOutcome& outcome,
                                QueryStats* stats) {
  if (stats != nullptr) stats->retries += outcome.retries;
  if (s.ok() || outcome.regions_failed == 0) return s;
  if (plan.allow_degraded &&
      outcome.regions_failed < outcome.regions_attempted) {
    // Partial results accepted: the surviving regions' rows have already
    // streamed into the sink; record the loss instead of failing.
    if (stats != nullptr) {
      stats->regions_failed += outcome.regions_failed;
      stats->degraded = true;
    }
    return Status::OK();
  }
  return s;
}

cluster::ClusterTable* Executor::Table(PlanTable table) const {
  switch (table) {
    case PlanTable::kPrimary:
      return primary_;
    case PlanTable::kTRSecondary:
      return tr_table_;
    case PlanTable::kIDTSecondary:
      return idt_table_;
  }
  return primary_;
}

namespace {

// Applies a filter on the client side of the scan (push-down disabled).
class ClientFilterSink : public kv::RowSink {
 public:
  ClientFilterSink(const kv::ScanFilter* filter, kv::RowSink* inner)
      : filter_(filter), inner_(inner) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (filter_ != nullptr && !filter_->Matches(key, value)) return true;
    return inner_->Accept(key, value);
  }

 private:
  const kv::ScanFilter* filter_;
  kv::RowSink* inner_;
};

// Enforces a global cross-window row limit through early termination.
class LimitSink : public kv::RowSink {
 public:
  LimitSink(size_t limit, kv::RowSink* inner) : limit_(limit), inner_(inner) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (accepted_ >= limit_) return false;
    if (!inner_->Accept(key, value)) return false;
    return ++accepted_ < limit_;
  }

 private:
  size_t limit_;
  kv::RowSink* inner_;
  size_t accepted_ = 0;
};

// Fetch stage of secondary-index plans: each streamed secondary row names a
// primary key in its value; the primary row is fetched, filtered, and
// forwarded without materializing the secondary result set.
class FetchPrimarySink : public kv::RowSink {
 public:
  FetchPrimarySink(cluster::ClusterTable* primary,
                   const kv::ScanFilter* filter, kv::RowSink* inner,
                   QueryStats* stats)
      : primary_(primary), filter_(filter), inner_(inner), stats_(stats) {}

  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    std::string row_value;
    Status s = primary_->Get(value, &row_value);
    if (s.IsNotFound()) return true;  // row rewritten concurrently
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    if (stats_ != nullptr) stats_->candidates++;
    if (filter_ != nullptr && !filter_->Matches(value, row_value)) return true;
    return inner_->Accept(value, row_value);
  }

  const Status& status() const { return status_; }

 private:
  cluster::ClusterTable* primary_;
  const kv::ScanFilter* filter_;
  kv::RowSink* inner_;
  QueryStats* stats_;
  Status status_;
};

// Outermost executor stage (closest to storage): counts rows the storage
// layer streams into the pipeline and early-termination cutoffs (the
// downstream chain declining a row). SerializedSink serializes deliveries,
// so no internal locking is needed.
class MeterSink : public kv::RowSink {
 public:
  MeterSink(obs::Counter* rows, obs::Counter* early_terminations,
            kv::RowSink* inner)
      : rows_(rows), early_terminations_(early_terminations), inner_(inner) {}

  bool Accept(const Slice& key, const Slice& value) override {
    rows_->Inc();
    if (inner_->Accept(key, value)) return true;
    early_terminations_->Inc();
    return false;
  }

 private:
  obs::Counter* rows_;
  obs::Counter* early_terminations_;
  kv::RowSink* inner_;
};

const char* ScanSpanName(PlanTable table) {
  switch (table) {
    case PlanTable::kPrimary:
      return "scan primary";
    case PlanTable::kTRSecondary:
      return "scan tr_index";
    case PlanTable::kIDTSecondary:
      return "scan idt_index";
  }
  return "scan";
}

// Freezes a finished scan span: summary annotations plus one child per
// region task, in key order. A region's duration is the time its task spent
// scanning (tasks overlap in the pool, so region durations can exceed the
// parent's wall time).
void FinishScanSpan(
    obs::TraceSpan* span,
    const std::vector<cluster::ClusterTable::RegionScanStat>& breakdown,
    const kv::ScanStats& scan_stats, size_t windows, bool pushed,
    const kv::MultiScanPerf& perf, const cluster::ScanOutcome& outcome,
    bool degraded) {
  span->End();
  span->Annotate("windows", static_cast<double>(windows));
  span->Annotate("scan_tasks", static_cast<double>(breakdown.size()));
  span->Annotate("rows_scanned", static_cast<double>(scan_stats.scanned));
  span->Annotate("rows_matched", static_cast<double>(scan_stats.matched));
  span->Annotate("push_down", pushed ? "true" : "false");
  if (outcome.retries > 0) {
    span->Annotate("region_retries", static_cast<double>(outcome.retries));
  }
  if (outcome.regions_failed > 0) {
    span->Annotate("regions_failed",
                   static_cast<double>(outcome.regions_failed));
    span->Annotate("degraded", degraded ? "true" : "false");
    for (const auto& [shard, err] : outcome.region_errors) {
      obs::TraceSpan* es =
          span->AddChild("region " + std::to_string(shard) + " FAILED");
      es->End();
      es->Annotate("error", err.ToString());
    }
  }
  // Read-path savings aggregated over all regions.
  span->Annotate("seeks_saved", static_cast<double>(perf.seeks_saved));
  span->Annotate("iterator_reuse", static_cast<double>(perf.iterator_reuse));
  span->Annotate("block_reuse", static_cast<double>(perf.block_reuse));
  span->Annotate("blocks_readahead",
                 static_cast<double>(perf.blocks_readahead));
  for (const auto& r : breakdown) {
    obs::TraceSpan* rs = span->AddChild("region " + std::to_string(r.shard));
    rs->SetDurationMs(r.scan_ms);
    rs->Annotate("rows_scanned", static_cast<double>(r.scanned));
    rs->Annotate("rows_matched", static_cast<double>(r.matched));
    rs->Annotate("queue_wait_ms", r.wait_ms);
  }
}

}  // namespace

Status Executor::Execute(const QueryPlan& plan, kv::RowSink* sink,
                         QueryStats* stats, obs::TraceSpan* span) {
  switch (plan.kind) {
    case PlanKind::kPrimaryScan:
      return ExecutePrimaryScan(plan, sink, stats, span);
    case PlanKind::kSecondaryFetch:
      return ExecuteSecondaryFetch(plan, sink, stats, span);
  }
  return Status::InvalidArgument("unknown plan kind");
}

Status Executor::ExecutePrimaryScan(const QueryPlan& plan, kv::RowSink* sink,
                                    QueryStats* stats, obs::TraceSpan* span) {
  kv::RowSink* stage = sink;
  LimitSink limiter(plan.limit, stage);
  if (plan.limit != 0) stage = &limiter;
  ClientFilterSink client_filter(plan.filter.get(), stage);
  const kv::ScanFilter* pushed = nullptr;
  if (push_down_) {
    pushed = plan.filter.get();
  } else if (plan.filter != nullptr) {
    stage = &client_filter;
  }
  MeterSink meter(rows_streamed_, early_terminations_, stage);
  if (rows_streamed_ != nullptr) stage = &meter;

  obs::TraceSpan* scan_span =
      span != nullptr ? span->AddChild(ScanSpanName(plan.scan_table)) : nullptr;
  std::vector<cluster::ClusterTable::RegionScanStat> breakdown;
  kv::ScanStats scan_stats;
  kv::MultiScanPerf perf;
  cluster::ScanOutcome outcome;
  Status s = Table(plan.scan_table)
                 ->MultiScan(plan.windows, pushed, 0, stage, &scan_stats,
                             scan_span != nullptr ? &breakdown : nullptr,
                             &perf, &outcome);
  s = ResolveOutcome(std::move(s), plan, outcome, stats);
  if (scan_span != nullptr) {
    FinishScanSpan(scan_span, breakdown, scan_stats, plan.windows.size(),
                   pushed != nullptr, perf, outcome,
                   s.ok() && outcome.regions_failed > 0);
  }
  if (stats != nullptr) {
    stats->windows += plan.windows.size();
    stats->candidates += scan_stats.scanned;
  }
  return s;
}

Status Executor::ExecuteSecondaryFetch(const QueryPlan& plan,
                                       kv::RowSink* sink, QueryStats* stats,
                                       obs::TraceSpan* span) {
  kv::RowSink* stage = sink;
  LimitSink limiter(plan.limit, stage);
  if (plan.limit != 0) stage = &limiter;
  // The secondary scan is unfiltered; the filter chain applies to the
  // fetched primary rows (their values carry the trajectory record).
  FetchPrimarySink fetch(primary_, plan.filter.get(), stage, stats);
  kv::RowSink* scan_stage = &fetch;
  MeterSink meter(rows_streamed_, early_terminations_, scan_stage);
  if (rows_streamed_ != nullptr) scan_stage = &meter;

  obs::TraceSpan* scan_span =
      span != nullptr ? span->AddChild(ScanSpanName(plan.scan_table)) : nullptr;
  std::vector<cluster::ClusterTable::RegionScanStat> breakdown;
  kv::ScanStats scan_stats;
  kv::MultiScanPerf perf;
  cluster::ScanOutcome outcome;
  Status s = Table(plan.scan_table)
                 ->MultiScan(plan.windows, nullptr, 0, scan_stage, &scan_stats,
                             scan_span != nullptr ? &breakdown : nullptr,
                             &perf, &outcome);
  s = ResolveOutcome(std::move(s), plan, outcome, stats);
  if (scan_span != nullptr) {
    FinishScanSpan(scan_span, breakdown, scan_stats, plan.windows.size(),
                   false, perf, outcome, s.ok() && outcome.regions_failed > 0);
  }
  if (stats != nullptr) {
    stats->windows += plan.windows.size();
    stats->candidates += scan_stats.scanned;
  }
  // Fetch-stage errors (primary Get failures) are the sink's own; degraded
  // mode covers region scan tasks, not the point-fetch path.
  if (s.ok()) s = fetch.status();
  return s;
}

// --- Sinks -----------------------------------------------------------------

bool DecodeTrajectoriesSink::Accept(const Slice& key, const Slice& value) {
  (void)key;
  traj::Trajectory t;
  if (!DecodeRecord(value, &t)) {
    status_ = Status::Corruption("bad trajectory record at key");
    return false;
  }
  out_->push_back(std::move(t));
  accepted_++;
  return limit_ == 0 || accepted_ < limit_;
}

bool ThresholdVerifySink::Accept(const Slice& key, const Slice& value) {
  (void)key;
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) {
    status_ = Status::Corruption("bad record during similarity query");
    return false;
  }
  std::vector<geo::TimedPoint> points;
  if (!DecodeRecordPoints(header, &points)) {
    status_ = Status::Corruption("bad point column during similarity query");
    return false;
  }
  if (stats_ != nullptr) stats_->exact_distance_computations++;
  if (geo::ExactDistanceWithin(measure_, query_->points, points,
                               threshold_) <= threshold_) {
    traj::Trajectory t;
    t.oid = header.oid.ToString();
    t.tid = header.tid.ToString();
    t.points = std::move(points);
    out_->push_back(std::move(t));
    accepted_++;
  }
  return true;
}

bool TopKSink::Accept(const Slice& key, const Slice& value) {
  (void)key;
  if (!status_.ok()) return false;
  // Heap cutoff: with k results at or below the cutoff, no row the scan has
  // yet to deliver (all beyond the previous radius) can improve the result.
  if (Full() && KthBound() <= cutoff_) return false;

  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) {
    status_ = Status::Corruption("bad record during top-k query");
    return false;
  }
  const std::string tid = header.tid.ToString();
  if (tid == query_->tid || !seen_.insert(tid).second) return true;

  const double kth_bound = Full() ? KthBound() : 1e300;
  geo::DPFeatures features;
  if (DecodeRecordFeatures(header, &features) &&
      geo::DPFeatureLowerBound(query_features_, features) > kth_bound) {
    return true;
  }
  std::vector<geo::TimedPoint> points;
  if (!DecodeRecordPoints(header, &points)) {
    status_ = Status::Corruption("bad point column during top-k query");
    return false;
  }
  if (stats_ != nullptr) stats_->exact_distance_computations++;
  // Exact while it can still enter the heap; once it cannot, the kernel
  // may stop early and return any value above the k-th distance.
  const double d = geo::ExactDistanceWithin(measure_, query_->points, points,
                                            KthBound());
  if (d >= kth_bound) return true;

  Scored scored{d, traj::Trajectory{}};
  scored.trajectory.oid = header.oid.ToString();
  scored.trajectory.tid = tid;
  scored.trajectory.points = std::move(points);
  best_.insert(std::upper_bound(best_.begin(), best_.end(), scored,
                                [](const Scored& a, const Scored& b) {
                                  return a.distance < b.distance;
                                }),
               std::move(scored));
  if (best_.size() > k_) best_.resize(k_);
  return !(Full() && KthBound() <= cutoff_);
}

std::vector<traj::Trajectory> TopKSink::TakeResults() {
  std::vector<traj::Trajectory> results;
  results.reserve(best_.size());
  for (Scored& scored : best_) {
    results.push_back(std::move(scored.trajectory));
  }
  best_.clear();
  return results;
}

}  // namespace tman::core
