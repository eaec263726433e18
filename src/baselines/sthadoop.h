#ifndef TMAN_BASELINES_STHADOOP_H_
#define TMAN_BASELINES_STHADOOP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/tman.h"
#include "geo/geometry.h"
#include "kvstore/db.h"
#include "traj/trajectory.h"

namespace tman::baselines {

// ST-Hadoop (GeoInformatica'18) analogue. Architectural properties the
// paper's comparison rests on, reproduced here:
//  * trajectories are split into individual *points* stored in
//    time-sliced, grid-partitioned files (candidates are counted in
//    points, not trajectories);
//  * a query launches a MapReduce-style job with a fixed startup cost and
//    scans every split that intersects the query;
//  * whole trajectories must be reassembled from their points.
class STHadoop {
 public:
  struct Options {
    traj::SpatialBounds bounds;
    int64_t slice_seconds = 24 * 3600;  // temporal partition (daily)
    int grid_bits = 6;                  // 2^bits x 2^bits spatial grid
    // Simulated MapReduce job-startup latency; 0 disables the sleep.
    int64_t job_startup_micros = 25000;
    kv::Options kv;
  };

  static Status Open(const Options& options, const std::string& path,
                     std::unique_ptr<STHadoop>* out);

  Status Load(const std::vector<traj::Trajectory>& trajectories);
  Status Flush();
  Status CompactAll();

  // Returns distinct trajectory ids with a point matching the predicate
  // (per-point storage cannot return whole trajectories without a second
  // reassembly pass).
  Status TemporalRangeQuery(int64_t ts, int64_t te,
                            std::vector<std::string>* tids,
                            core::QueryStats* stats = nullptr);

  Status SpatialRangeQuery(const geo::MBR& rect,
                           std::vector<std::string>* tids,
                           core::QueryStats* stats = nullptr);

  Status SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts, int64_t te,
                                  std::vector<std::string>* tids,
                                  core::QueryStats* stats = nullptr);

  uint64_t StorageBytes();

 private:
  STHadoop(const Options& options, std::string path);

  int64_t SliceOf(int64_t t) const;
  uint32_t CellOf(double lon, double lat) const;

  // Scans the slice range with optional per-point predicate.
  Status RunJob(int64_t slice_lo, int64_t slice_hi, const geo::MBR* rect,
                const int64_t* ts, const int64_t* te,
                std::vector<std::string>* tids, core::QueryStats* stats);

  Options options_;
  std::string path_;
  std::unique_ptr<kv::DB> db_;
  int64_t min_slice_ = 0;
  int64_t max_slice_ = 0;
};

}  // namespace tman::baselines

#endif  // TMAN_BASELINES_STHADOOP_H_
