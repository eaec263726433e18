#include "baselines/trajmesa.h"

#include "common/stopwatch.h"
#include "core/filters.h"
#include "core/record.h"
#include "core/rowkey.h"

namespace tman::baselines {

using core::EncodeRecord;
using core::FilterChain;
using core::QueryStats;
using core::SpatialRangeFilter;
using core::TemporalRangeFilter;

TrajMesa::TrajMesa(const Options& options, const std::string& path)
    : options_(options), path_(path) {}

Status TrajMesa::Open(const Options& options, const std::string& path,
                      std::unique_ptr<TrajMesa>* out) {
  out->reset();
  std::unique_ptr<TrajMesa> tm(new TrajMesa(options, path));
  Status s = tm->Init();
  if (!s.ok()) return s;
  *out = std::move(tm);
  return Status::OK();
}

Status TrajMesa::Init() {
  cluster_ = std::make_unique<cluster::Cluster>(path_, options_.num_servers,
                                                options_.kv);
  Status s = cluster_->CreateTable("xzt", options_.num_shards);
  if (!s.ok()) return s;
  s = cluster_->CreateTable("xz2", options_.num_shards);
  if (!s.ok()) return s;
  s = cluster_->CreateTable("idt", options_.num_shards);
  if (!s.ok()) return s;
  xzt_table_ = cluster_->GetTable("xzt");
  xz2_table_ = cluster_->GetTable("xz2");
  idt_table_ = cluster_->GetTable("idt");
  xzt_index_ = std::make_unique<index::XZTIndex>(options_.xzt);
  xz2_index_ = std::make_unique<index::XZ2Index>(options_.xz2);
  return Status::OK();
}

Status TrajMesa::Load(const std::vector<traj::Trajectory>& trajectories) {
  std::vector<cluster::Row> xzt_rows, xz2_rows, idt_rows;
  auto flush_chunk = [&]() -> Status {
    Status s = xzt_table_->BatchPut(xzt_rows);
    if (!s.ok()) return s;
    s = xz2_table_->BatchPut(xz2_rows);
    if (!s.ok()) return s;
    s = idt_table_->BatchPut(idt_rows);
    if (!s.ok()) return s;
    xzt_rows.clear();
    xz2_rows.clear();
    idt_rows.clear();
    return Status::OK();
  };

  for (const traj::Trajectory& t : trajectories) {
    if (t.points.empty()) {
      return Status::InvalidArgument("empty trajectory " + t.tid);
    }
    std::string value;
    if (!EncodeRecord(t, options_.max_dp_features, &value)) {
      return Status::InvalidArgument("unencodable trajectory " + t.tid);
    }
    const uint64_t xzt = xzt_index_->Encode(t.start_time(), t.end_time());
    geo::MBR norm_mbr = options_.bounds.Normalize(t.ComputeMBR());
    const uint64_t xz2 = xz2_index_->Encode(norm_mbr);
    const uint8_t shard = core::ShardOfTid(t.tid, options_.num_shards);

    // The defining TrajMesa property: the full row goes to every table.
    xzt_rows.push_back(cluster::Row{core::PrimaryKey(shard, xzt, t.tid),
                                    value});
    xz2_rows.push_back(cluster::Row{core::PrimaryKey(shard, xz2, t.tid),
                                    value});
    idt_rows.push_back(cluster::Row{
        core::IDTKey(core::ShardOfOid(t.oid, options_.num_shards), t.oid, xzt,
                     t.tid),
        std::move(value)});
    if (xzt_rows.size() >= 4096) {
      Status s = flush_chunk();
      if (!s.ok()) return s;
    }
  }
  return flush_chunk();
}

Status TrajMesa::Flush() {
  Status s = xzt_table_->Flush();
  if (s.ok()) s = xz2_table_->Flush();
  if (s.ok()) s = idt_table_->Flush();
  return s;
}

Status TrajMesa::CompactAll() {
  Status s = xzt_table_->CompactAll();
  if (s.ok()) s = xz2_table_->CompactAll();
  if (s.ok()) s = idt_table_->CompactAll();
  return s;
}

namespace {

Status DecodeRows(const std::vector<cluster::Row>& rows,
                  std::vector<traj::Trajectory>* out) {
  out->reserve(out->size() + rows.size());
  for (const cluster::Row& row : rows) {
    traj::Trajectory t;
    if (!core::DecodeRecord(row.value, &t)) {
      return Status::Corruption("bad trajectory record");
    }
    out->push_back(std::move(t));
  }
  return Status::OK();
}

}  // namespace

Status TrajMesa::TemporalRangeQuery(int64_t ts, int64_t te,
                                    std::vector<traj::Trajectory>* out,
                                    QueryStats* stats) {
  Stopwatch total;
  const auto ranges = xzt_index_->QueryRanges(ts, te);
  const auto windows = core::WindowsForRanges(ranges, options_.num_shards);
  TemporalRangeFilter filter(ts, te);
  std::vector<cluster::Row> rows;
  kv::ScanStats scan_stats;
  // No push-down: every candidate row crosses the storage boundary.
  Status s =
      xzt_table_->ScanWithoutPushdown(windows, &filter, &rows, &scan_stats);
  if (!s.ok()) return s;
  s = DecodeRows(rows, out);
  if (stats != nullptr) {
    stats->plan = "trajmesa:xzt";
    stats->windows += windows.size();
    stats->candidates += scan_stats.scanned;
    stats->results += rows.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  return s;
}

Status TrajMesa::SpatialRangeQuery(const geo::MBR& rect,
                                   std::vector<traj::Trajectory>* out,
                                   QueryStats* stats) {
  Stopwatch total;
  geo::MBR norm = options_.bounds.Normalize(rect);
  norm.min_x = std::clamp(norm.min_x, 0.0, 1.0);
  norm.min_y = std::clamp(norm.min_y, 0.0, 1.0);
  norm.max_x = std::clamp(norm.max_x, 0.0, 1.0);
  norm.max_y = std::clamp(norm.max_y, 0.0, 1.0);
  const auto ranges = xz2_index_->QueryRanges(norm);
  const auto windows = core::WindowsForRanges(ranges, options_.num_shards);
  SpatialRangeFilter filter(rect);
  std::vector<cluster::Row> rows;
  kv::ScanStats scan_stats;
  Status s =
      xz2_table_->ScanWithoutPushdown(windows, &filter, &rows, &scan_stats);
  if (!s.ok()) return s;
  s = DecodeRows(rows, out);
  if (stats != nullptr) {
    stats->plan = "trajmesa:xz2";
    stats->windows += windows.size();
    stats->candidates += scan_stats.scanned;
    stats->results += rows.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  return s;
}

Status TrajMesa::SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts,
                                          int64_t te,
                                          std::vector<traj::Trajectory>* out,
                                          QueryStats* stats) {
  Stopwatch total;
  // TrajMesa combines the temporal windows with a client-side spatial
  // check; its long XZT periods force it to inspect many irrelevant rows
  // for short time ranges (paper §VI-D).
  const auto ranges = xzt_index_->QueryRanges(ts, te);
  const auto windows = core::WindowsForRanges(ranges, options_.num_shards);
  FilterChain chain;
  chain.Add(std::make_unique<TemporalRangeFilter>(ts, te));
  chain.Add(std::make_unique<SpatialRangeFilter>(rect));
  std::vector<cluster::Row> rows;
  kv::ScanStats scan_stats;
  Status s =
      xzt_table_->ScanWithoutPushdown(windows, &chain, &rows, &scan_stats);
  if (!s.ok()) return s;
  s = DecodeRows(rows, out);
  if (stats != nullptr) {
    stats->plan = "trajmesa:xzt+client-spatial";
    stats->windows += windows.size();
    stats->candidates += scan_stats.scanned;
    stats->results += rows.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  return s;
}

Status TrajMesa::IDTemporalQuery(const std::string& oid, int64_t ts,
                                 int64_t te,
                                 std::vector<traj::Trajectory>* out,
                                 QueryStats* stats) {
  Stopwatch total;
  const auto ranges = xzt_index_->QueryRanges(ts, te);
  const auto windows =
      core::WindowsForIDT(oid, ranges, options_.num_shards);
  TemporalRangeFilter filter(ts, te);
  std::vector<cluster::Row> rows;
  kv::ScanStats scan_stats;
  Status s =
      idt_table_->ScanWithoutPushdown(windows, &filter, &rows, &scan_stats);
  if (!s.ok()) return s;
  s = DecodeRows(rows, out);
  if (stats != nullptr) {
    stats->plan = "trajmesa:idt";
    stats->windows += windows.size();
    stats->candidates += scan_stats.scanned;
    stats->results += rows.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  return s;
}

uint64_t TrajMesa::StorageBytes() {
  return xzt_table_->TotalBytes() + xz2_table_->TotalBytes() +
         idt_table_->TotalBytes();
}

}  // namespace tman::baselines
