#include "core/executor.h"

#include <algorithm>

namespace tman::core {

Executor::Executor(cluster::ClusterTable* primary,
                   cluster::ClusterTable* tr_table,
                   cluster::ClusterTable* idt_table,
                   obs::MetricsRegistry* registry)
    : primary_(primary), tr_table_(tr_table), idt_table_(idt_table) {
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

// Fetch stage of secondary-index plans: each streamed secondary row names a
// primary key in its value. Each region task of the secondary scan fetches
// its own primary rows with point Gets, filters them and forwards them to
// its fork of the inner sink, without materializing the secondary result
// set.
class FetchPrimarySink : public cluster::ScanSink {
 public:
  FetchPrimarySink(cluster::ClusterTable* primary,
                   const kv::ScanFilter* filter, cluster::ScanSink* inner)
      : primary_(primary), filter_(filter), inner_(inner) {}

  std::unique_ptr<kv::RowSink> Fork() override {
    return std::make_unique<RegionFork>(this, inner_->Fork());
  }

  void Finish(kv::RowSink* fork) override {
    inner_->Finish(static_cast<RegionFork*>(fork)->inner.get());
  }

  void Join(kv::RowSink* fork) override {
    auto* f = static_cast<RegionFork*>(fork);
    fetched_ += f->fetched;
    if (status_.ok()) status_ = f->status;
    inner_->Join(f->inner.get());
  }

  // Primary rows fetched: the candidates of a secondary-index plan.
  uint64_t fetched() const { return fetched_; }
  const Status& status() const { return status_; }

 private:
  struct RegionFork : public kv::RowSink {
    RegionFork(const FetchPrimarySink* sink, std::unique_ptr<kv::RowSink> in)
        : sink(sink), inner(std::move(in)) {}

    bool Accept(const Slice& key, const Slice& value) override {
      (void)key;
      Status s = sink->primary_->Get(value, &row_value);
      if (s.IsNotFound()) return true;  // row rewritten concurrently
      if (!s.ok()) {
        status = s;
        return false;
      }
      fetched++;
      const kv::ScanFilter* filter = sink->filter_;
      if (filter != nullptr && !filter->Matches(value, row_value)) return true;
      return inner->Accept(value, row_value);
    }

    const FetchPrimarySink* sink;
    std::unique_ptr<kv::RowSink> inner;
    std::string row_value;
    uint64_t fetched = 0;
    Status status;
  };

  cluster::ClusterTable* primary_;
  const kv::ScanFilter* filter_;
  cluster::ScanSink* inner_;
  uint64_t fetched_ = 0;
  Status status_;
};

// Outermost executor stage (closest to storage): counts rows the storage
// layer streams into the pipeline and whether the downstream chain declined
// one (an early-termination cutoff). Each fork counts its own; the executor
// publishes the totals after the join.
class MeterSink : public cluster::ScanSink {
 public:
  explicit MeterSink(cluster::ScanSink* inner) : inner_(inner) {}

  std::unique_ptr<kv::RowSink> Fork() override {
    return std::make_unique<RegionFork>(inner_->Fork());
  }

  void Finish(kv::RowSink* fork) override {
    inner_->Finish(static_cast<RegionFork*>(fork)->inner.get());
  }

  void Join(kv::RowSink* fork) override {
    auto* f = static_cast<RegionFork*>(fork);
    rows_ += f->rows;
    declined_ = declined_ || f->declined;
    inner_->Join(f->inner.get());
  }

  uint64_t rows() const { return rows_; }
  bool declined() const { return declined_; }

 private:
  struct RegionFork : public kv::RowSink {
    explicit RegionFork(std::unique_ptr<kv::RowSink> in)
        : inner(std::move(in)) {}

    bool Accept(const Slice& key, const Slice& value) override {
      rows++;
      if (inner->Accept(key, value)) return true;
      declined = true;
      return false;
    }

    std::unique_ptr<kv::RowSink> inner;
    uint64_t rows = 0;
    bool declined = false;
  };

  cluster::ScanSink* inner_;
  uint64_t rows_ = 0;
  bool declined_ = false;
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

Status Executor::Execute(const QueryPlan& plan, cluster::ScanSink* sink,
                         QueryStats* stats, obs::TraceSpan* span) {
  // Secondary-index plans scan the index unfiltered; the filter chain
  // applies to the fetched primary rows (their values carry the record).
  const bool fetch_primary = plan.kind == PlanKind::kSecondaryFetch;
  FetchPrimarySink fetch(primary_, plan.filter.get(), sink);
  cluster::ScanSink* stage = fetch_primary ? &fetch : sink;
  MeterSink meter(stage);
  if (rows_streamed_ != nullptr) stage = &meter;
  const kv::ScanFilter* pushed = fetch_primary ? nullptr : plan.filter.get();

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
  if (rows_streamed_ != nullptr) {
    rows_streamed_->Inc(meter.rows());
    if (meter.declined()) early_terminations_->Inc();
  }
  if (stats != nullptr) {
    stats->windows += plan.windows.size();
    // For secondary-index plans the candidates are the primary rows
    // fetched, not the index rows scanned to find them.
    stats->candidates += fetch_primary ? fetch.fetched() : scan_stats.scanned;
  }
  // Fetch-stage errors (primary Get failures) are the sink's own; degraded
  // mode covers region scan tasks, not the point-fetch path.
  if (s.ok()) s = fetch.status();
  return s;
}

// --- Sinks -----------------------------------------------------------------

namespace {

class NullFork : public kv::RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    (void)value;
    return true;
  }
};

// A fork's decoded trajectories, appended to the sink's output at the join.
struct TrajectoriesFork : public kv::RowSink {
  std::vector<traj::Trajectory> out;
  Status status;
};

class DecodeFork : public TrajectoriesFork {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    traj::Trajectory t;
    if (!DecodeRecord(value, &t)) {
      status = Status::Corruption("bad trajectory record at key");
      return false;
    }
    out.push_back(std::move(t));
    return true;
  }
};

// Appends a fork's trajectories to `out` and keeps the first error.
uint64_t JoinTrajectories(TrajectoriesFork* fork,
                          std::vector<traj::Trajectory>* out,
                          Status* status) {
  if (status->ok()) *status = fork->status;
  out->insert(out->end(), std::make_move_iterator(fork->out.begin()),
              std::make_move_iterator(fork->out.end()));
  return fork->out.size();
}

}  // namespace

std::unique_ptr<kv::RowSink> NullSink::Fork() {
  return std::make_unique<NullFork>();
}

std::unique_ptr<kv::RowSink> DecodeTrajectoriesSink::Fork() {
  return std::make_unique<DecodeFork>();
}

void DecodeTrajectoriesSink::Join(kv::RowSink* fork) {
  accepted_ +=
      JoinTrajectories(static_cast<DecodeFork*>(fork), out_, &status_);
}

class ThresholdVerifySink::RegionFork : public TrajectoriesFork {
 public:
  explicit RegionFork(const ThresholdVerifySink* sink) : sink_(sink) {}

  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    RecordHeader header;
    if (!DecodeRecordHeader(value, &header)) {
      status = Status::Corruption("bad record during similarity query");
      return false;
    }
    if (!DecodeRecordPoints(header, &points_)) {
      status =
          Status::Corruption("bad point column during similarity query");
      return false;
    }
    exact_distances++;
    if (geo::ExactDistanceWithin(sink_->measure_, sink_->query_->points,
                                 points_, sink_->threshold_) <=
        sink_->threshold_) {
      traj::Trajectory t;
      t.oid = header.oid.ToString();
      t.tid = header.tid.ToString();
      t.points = std::move(points_);
      out.push_back(std::move(t));
    }
    return true;
  }

  uint64_t exact_distances = 0;

 private:
  const ThresholdVerifySink* sink_;
  std::vector<geo::TimedPoint> points_;  // capacity reused across rows
};

std::unique_ptr<kv::RowSink> ThresholdVerifySink::Fork() {
  return std::make_unique<RegionFork>(this);
}

void ThresholdVerifySink::Join(kv::RowSink* fork) {
  auto* f = static_cast<RegionFork*>(fork);
  accepted_ += JoinTrajectories(f, out_, &status_);
  if (stats_ != nullptr) {
    stats_->exact_distance_computations += f->exact_distances;
  }
}

class TopKSink::RegionFork : public kv::RowSink {
 public:
  explicit RegionFork(TopKSink* sink) : sink_(sink) {}

  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    // Cutoff: with k results at or below it, no row the scan has yet to
    // deliver (all beyond the previous radius) can improve the result.
    const double kth = sink_->KthBound();
    if (kth <= sink_->cutoff_) return false;

    RecordHeader header;
    if (!DecodeRecordHeader(value, &header)) {
      status = Status::Corruption("bad record during top-k query");
      return false;
    }
    if (header.tid == Slice(sink_->query_->tid)) return true;

    // A row whose feature column does not decode has no bound: it is
    // verified, never pruned.
    double bound = 0;
    if (!geo::DPFeatureLowerBound(sink_->query_features_,
                                  header.dp_blob.data(),
                                  header.dp_blob.size(), &bound)) {
      bound = 0;
    }
    if (bound > kth) return true;
    if (bound <= sink_->cutoff_) {
      return Verify(header) && sink_->KthBound() > sink_->cutoff_;
    }
    if (held_ == buffer_.size()) buffer_.emplace_back();
    buffer_[held_].bound = bound;
    buffer_[held_].value.assign(value.data(), value.size());
    return ++held_ < kForkBufferRows || Drain();
  }

  // Verifies the buffered rows in ascending bound order and empties the
  // buffer. Returns false when the scan should stop: the k-th distance
  // reached the cutoff, or a row is corrupt.
  bool Drain() {
    std::sort(buffer_.begin(), buffer_.begin() + held_,
              [](const Held& a, const Held& b) { return a.bound < b.bound; });
    bool more = status.ok();
    for (size_t i = 0; more && i < held_; i++) {
      const double kth = sink_->KthBound();
      if (kth <= sink_->cutoff_) {
        more = false;
      } else if (buffer_[i].bound > kth) {
        break;  // and so is every later row's
      } else {
        RecordHeader header;
        DecodeRecordHeader(buffer_[i].value, &header);  // parsed in Accept
        more = Verify(header);
      }
    }
    held_ = 0;
    return more;
  }

  uint64_t exact_distances = 0;
  Status status;

 private:
  struct Held {
    double bound = 0;
    std::string value;  // capacity is reused across drains
  };

  // Decodes the row's points and offers it to the k-best if its exact
  // distance beats the k-th. False (with `status` set) on a corrupt row.
  bool Verify(const RecordHeader& header) {
    if (!DecodeRecordPoints(header, &points_)) {
      status = Status::Corruption("bad point column during top-k query");
      return false;
    }
    exact_distances++;
    // Exact while it can still enter the k-best; once it cannot, the kernel
    // may stop early and return any value above the k-th distance.
    const double kth = sink_->KthBound();
    const double d = geo::ExactDistanceWithin(
        sink_->measure_, sink_->query_->points, points_, kth);
    if (d >= kth) return true;

    traj::Trajectory t;
    t.oid = header.oid.ToString();
    t.tid = header.tid.ToString();
    t.points = std::move(points_);
    sink_->Offer(d, std::move(t));
    return true;
  }

  TopKSink* sink_;
  std::vector<geo::TimedPoint> points_;  // capacity reused across rows
  std::vector<Held> buffer_;  // the first held_ entries are live
  size_t held_ = 0;
};

std::unique_ptr<kv::RowSink> TopKSink::Fork() {
  return std::make_unique<RegionFork>(this);
}

void TopKSink::Finish(kv::RowSink* fork) {
  static_cast<RegionFork*>(fork)->Drain();
}

void TopKSink::Join(kv::RowSink* fork) {
  auto* f = static_cast<RegionFork*>(fork);
  if (status_.ok()) status_ = f->status;
  if (stats_ != nullptr) {
    stats_->exact_distance_computations += f->exact_distances;
  }
}

void TopKSink::Offer(double distance, traj::Trajectory trajectory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (best_.size() >= k_ && distance >= best_.back().distance) return;
  for (const Scored& held : best_) {
    if (held.trajectory.tid == trajectory.tid) return;
  }
  Scored scored{distance, std::move(trajectory)};
  best_.insert(std::upper_bound(best_.begin(), best_.end(), scored,
                                [](const Scored& a, const Scored& b) {
                                  return a.distance < b.distance;
                                }),
               std::move(scored));
  if (best_.size() > k_) best_.pop_back();
  if (best_.size() == k_) {
    kth_.store(best_.back().distance, std::memory_order_release);
  }
}

std::vector<traj::Trajectory> TopKSink::TakeResults() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<traj::Trajectory> results;
  results.reserve(best_.size());
  for (Scored& scored : best_) {
    results.push_back(std::move(scored.trajectory));
  }
  best_.clear();
  return results;
}

}  // namespace tman::core
