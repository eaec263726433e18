#include "baselines/sthadoop.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/stopwatch.h"
#include "kvstore/write_batch.h"

namespace tman::baselines {

STHadoop::STHadoop(const Options& options, std::string path)
    : options_(options), path_(std::move(path)) {}

Status STHadoop::Open(const Options& options, const std::string& path,
                      std::unique_ptr<STHadoop>* out) {
  out->reset();
  std::unique_ptr<STHadoop> sth(new STHadoop(options, path));
  Status s = kv::DB::Open(options.kv, path, &sth->db_);
  if (!s.ok()) return s;
  *out = std::move(sth);
  return Status::OK();
}

int64_t STHadoop::SliceOf(int64_t t) const {
  return t / options_.slice_seconds;
}

uint32_t STHadoop::CellOf(double lon, double lat) const {
  const uint32_t n = 1u << options_.grid_bits;
  auto idx = [n](double v, double lo, double hi) {
    double f = (v - lo) / (hi - lo);
    f = std::clamp(f, 0.0, 1.0);
    uint32_t i = static_cast<uint32_t>(f * n);
    return i >= n ? n - 1 : i;
  };
  const uint32_t cx =
      idx(lon, options_.bounds.min_lon, options_.bounds.max_lon);
  const uint32_t cy =
      idx(lat, options_.bounds.min_lat, options_.bounds.max_lat);
  return cy * n + cx;  // row-major
}

namespace {

std::string PointKey(int64_t slice, uint32_t cell, const std::string& tid,
                     uint32_t seq) {
  std::string key;
  PutBigEndian64(&key, static_cast<uint64_t>(slice));
  PutBigEndian32(&key, cell);
  key.append(tid);
  PutBigEndian32(&key, seq);
  return key;
}

std::string PointValue(const geo::TimedPoint& p, const std::string& tid) {
  std::string value;
  uint64_t bits;
  memcpy(&bits, &p.x, sizeof(bits));
  PutFixed64(&value, bits);
  memcpy(&bits, &p.y, sizeof(bits));
  PutFixed64(&value, bits);
  PutFixed64(&value, static_cast<uint64_t>(p.t));
  PutLengthPrefixedSlice(&value, tid);
  return value;
}

bool ParsePointValue(const Slice& value, geo::TimedPoint* p,
                     std::string* tid) {
  if (value.size() < 24) return false;
  uint64_t bits = DecodeFixed64(value.data());
  memcpy(&p->x, &bits, sizeof(p->x));
  bits = DecodeFixed64(value.data() + 8);
  memcpy(&p->y, &bits, sizeof(p->y));
  p->t = static_cast<int64_t>(DecodeFixed64(value.data() + 16));
  Slice rest(value.data() + 24, value.size() - 24);
  Slice tid_slice;
  if (!GetLengthPrefixedSlice(&rest, &tid_slice)) return false;
  *tid = tid_slice.ToString();
  return true;
}

}  // namespace

Status STHadoop::Load(const std::vector<traj::Trajectory>& trajectories) {
  kv::WriteBatch batch;
  bool first = true;
  for (const traj::Trajectory& t : trajectories) {
    for (uint32_t i = 0; i < t.points.size(); i++) {
      const geo::TimedPoint& p = t.points[i];
      const int64_t slice = SliceOf(p.t);
      if (first || slice < min_slice_) min_slice_ = slice;
      if (first || slice > max_slice_) max_slice_ = slice;
      first = false;
      batch.Put(PointKey(slice, CellOf(p.x, p.y), t.tid, i),
                PointValue(p, t.tid));
      if (batch.ApproximateSize() > 1 << 20) {
        Status s = db_->Write(kv::WriteOptions(), &batch);
        if (!s.ok()) return s;
        batch.Clear();
      }
    }
  }
  return db_->Write(kv::WriteOptions(), &batch);
}

Status STHadoop::Flush() { return db_->Flush(); }

Status STHadoop::CompactAll() { return db_->CompactAll(); }

Status STHadoop::RunJob(int64_t slice_lo, int64_t slice_hi,
                        const geo::MBR* rect, const int64_t* ts,
                        const int64_t* te, std::vector<std::string>* tids,
                        core::QueryStats* stats) {
  Stopwatch total;
  // MapReduce job startup: task scheduling, JVM spin-up, split planning.
  if (options_.job_startup_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.job_startup_micros));
  }
  slice_lo = std::max(slice_lo, min_slice_);
  slice_hi = std::min(slice_hi, max_slice_);

  // Cell cover of the query rectangle: contiguous runs per grid row.
  struct Run {
    uint32_t lo;
    uint32_t hi;
  };
  std::vector<Run> runs;
  const uint32_t n = 1u << options_.grid_bits;
  if (rect != nullptr) {
    const uint32_t cx0 = CellOf(rect->min_x, rect->min_y) % n;
    const uint32_t cy0 = CellOf(rect->min_x, rect->min_y) / n;
    const uint32_t cx1 = CellOf(rect->max_x, rect->max_y) % n;
    const uint32_t cy1 = CellOf(rect->max_x, rect->max_y) / n;
    for (uint32_t cy = cy0; cy <= cy1; cy++) {
      runs.push_back(Run{cy * n + cx0, cy * n + cx1});
    }
  } else {
    runs.push_back(Run{0, n * n - 1});
  }

  std::set<std::string> result;
  uint64_t scanned = 0;
  uint64_t windows = 0;
  for (int64_t slice = slice_lo; slice <= slice_hi; slice++) {
    for (const Run& run : runs) {
      windows++;
      std::string start, end;
      PutBigEndian64(&start, static_cast<uint64_t>(slice));
      PutBigEndian32(&start, run.lo);
      PutBigEndian64(&end, static_cast<uint64_t>(slice));
      PutBigEndian32(&end, run.hi + 1);
      std::vector<std::pair<std::string, std::string>> rows;
      kv::ScanStats scan_stats;
      Status s = db_->Scan(kv::ReadOptions(), start, end, nullptr, 0, &rows,
                           &scan_stats);
      if (!s.ok()) return s;
      scanned += scan_stats.scanned;
      for (const auto& [key, value] : rows) {
        (void)key;
        geo::TimedPoint p;
        std::string tid;
        if (!ParsePointValue(value, &p, &tid)) continue;
        if (ts != nullptr && (p.t < *ts || p.t > *te)) continue;
        if (rect != nullptr &&
            !rect->Contains(geo::Point{p.x, p.y})) {
          continue;
        }
        result.insert(std::move(tid));
      }
    }
  }
  tids->assign(result.begin(), result.end());
  if (stats != nullptr) {
    stats->plan = "sthadoop:mapreduce";
    stats->windows += windows;
    stats->candidates += scanned;  // candidates are points
    stats->results += result.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  return Status::OK();
}

Status STHadoop::TemporalRangeQuery(int64_t ts, int64_t te,
                                    std::vector<std::string>* tids,
                                    core::QueryStats* stats) {
  return RunJob(SliceOf(ts), SliceOf(te), nullptr, &ts, &te, tids, stats);
}

Status STHadoop::SpatialRangeQuery(const geo::MBR& rect,
                                   std::vector<std::string>* tids,
                                   core::QueryStats* stats) {
  return RunJob(min_slice_, max_slice_, &rect, nullptr, nullptr, tids, stats);
}

Status STHadoop::SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts,
                                          int64_t te,
                                          std::vector<std::string>* tids,
                                          core::QueryStats* stats) {
  return RunJob(SliceOf(ts), SliceOf(te), &rect, &ts, &te, tids, stats);
}

uint64_t STHadoop::StorageBytes() {
  kv::DB::Stats db_stats = db_->GetStats();
  uint64_t total = db_stats.memtable_bytes;
  for (uint64_t b : db_stats.bytes_per_level) total += b;
  return total;
}

}  // namespace tman::baselines
