#ifndef TMAN_BASELINES_TRAJMESA_H_
#define TMAN_BASELINES_TRAJMESA_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/options.h"
#include "core/tman.h"
#include "geo/geometry.h"
#include "index/xz2_index.h"
#include "index/xzt_index.h"
#include "traj/trajectory.h"

namespace tman::baselines {

// TrajMesa (TKDE'21): the paper's main system baseline. Key differences
// from TMan reproduced here:
//  * multi-table storage: the full trajectory row is written to an XZT
//    table, an XZ2 table, AND an IDT table (3x storage redundancy);
//  * XZT temporal index and XZ-Ordering spatial index;
//  * no push-down: all window rows are shipped to the client and filtered
//    there.
class TrajMesa {
 public:
  struct Options {
    traj::SpatialBounds bounds;
    index::XZTConfig xzt;
    index::XZ2Config xz2;
    int num_shards = 8;
    int num_servers = 5;
    size_t max_dp_features = 8;
    kv::Options kv;
  };

  static Status Open(const Options& options, const std::string& path,
                     std::unique_ptr<TrajMesa>* out);

  Status Load(const std::vector<traj::Trajectory>& trajectories);
  Status Flush();
  Status CompactAll();

  Status TemporalRangeQuery(int64_t ts, int64_t te,
                            std::vector<traj::Trajectory>* out,
                            core::QueryStats* stats = nullptr);

  Status SpatialRangeQuery(const geo::MBR& rect,
                           std::vector<traj::Trajectory>* out,
                           core::QueryStats* stats = nullptr);

  Status SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts, int64_t te,
                                  std::vector<traj::Trajectory>* out,
                                  core::QueryStats* stats = nullptr);

  Status IDTemporalQuery(const std::string& oid, int64_t ts, int64_t te,
                         std::vector<traj::Trajectory>* out,
                         core::QueryStats* stats = nullptr);

  uint64_t StorageBytes();

 private:
  TrajMesa(const Options& options, const std::string& path);

  Status Init();

  Options options_;
  std::string path_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::ClusterTable* xzt_table_ = nullptr;
  cluster::ClusterTable* xz2_table_ = nullptr;
  cluster::ClusterTable* idt_table_ = nullptr;
  std::unique_ptr<index::XZTIndex> xzt_index_;
  std::unique_ptr<index::XZ2Index> xz2_index_;
};

}  // namespace tman::baselines

#endif  // TMAN_BASELINES_TRAJMESA_H_
