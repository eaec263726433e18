#ifndef TMAN_CORE_OPTIONS_H_
#define TMAN_CORE_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/region_balancer.h"
#include "common/retry.h"
#include "index/shape_encoding.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "index/xz2_index.h"
#include "index/xzt_index.h"
#include "kvstore/options.h"
#include "traj/trajectory.h"

namespace tman::core {

// Which index keys the primary table (paper §IV-B: users pick the primary
// index for their dominant query; other queries go through secondaries).
enum class PrimaryIndexKind {
  kSpatial,   // TShape (or XZ2/XZ* in baseline configurations)
  kTemporal,  // TR (or XZT)
  kST,        // TR :: TShape concatenation
};

enum class SpatialIndexKind { kTShape, kXZ2, kXZStar };
enum class TemporalIndexKind { kTR, kXZT };

struct TManOptions {
  // Dataset spatial boundary; trajectories are normalized against it.
  traj::SpatialBounds bounds;

  PrimaryIndexKind primary = PrimaryIndexKind::kSpatial;
  SpatialIndexKind spatial = SpatialIndexKind::kTShape;
  TemporalIndexKind temporal = TemporalIndexKind::kTR;

  index::TShapeConfig tshape;   // alpha/beta/g
  index::XZ2Config xz2;         // baseline spatial
  index::TRConfig tr;           // period length / N
  index::XZTConfig xzt;         // baseline temporal

  // Shape-code optimisation (§IV-A2(3)).
  index::ShapeOrderMethod encoding = index::ShapeOrderMethod::kGenetic;
  index::GeneticParams genetic;

  // Index cache (§IV-B(3)). Disabling reproduces the Fig. 16 ablation.
  bool use_index_cache = true;
  size_t index_cache_capacity = 8192;  // LFU entries (elements)
  // No effect. Shapes get codes that never change at insert time, so
  // nothing re-encodes; the field is kept for callers that still set it.
  size_t buffer_shape_threshold = 256;

  // Cluster shape.
  int num_shards = 8;
  int num_servers = 5;

  // Dynamic region management: with balancer.enabled the scan tables
  // (primary, tr_idx, idt_idx) are watched by a cluster::RegionBalancer
  // that splits write-hot regions at their median key and merges cold
  // adjacent pairs, per the thresholds in the struct. Off by default — the
  // initial num_shards layout then stays fixed, exactly as before.
  cluster::RegionBalancerOptions balancer;

  // DP-features kept per trajectory (§IV-B: dp-feature column).
  size_t max_dp_features = 8;

  // Region-task retry policy for cluster scans. The default (max_retries
  // == 0) never re-runs a failed region task; setting max_retries > 0 lets
  // transient region faults (I/O errors, busy stores) heal in place —
  // successful retries surface as QueryStats::retries with degraded=false.
  RetryPolicy region_retry;

  // Retention (TTL) for primary-table rows, enforced by a compaction
  // filter on the primary table only: a row whose record end time `te` is
  // older than now - retention_seconds is expired the next time compaction
  // rewrites it (see core/ttl_filter.h for the exact drop-vs-tombstone
  // semantics and why secondary tables are exempt). 0 disables retention.
  int64_t retention_seconds = 0;

  // Test hook: clock used by the TTL filter, seconds since epoch. Null
  // means the system realtime clock.
  std::function<int64_t()> retention_clock;

  // --- Telemetry plane (see DESIGN.md "Telemetry plane") ---

  // TCP port of the embedded HTTP telemetry server (/metrics, /healthz,
  // /statusz, /eventz, /tracez). -1 (the default) disables the server, the
  // event log and the background reporter entirely; 0 binds an ephemeral
  // port (query it with TMan::telemetry_port() — the test-friendly mode).
  int telemetry_port = -1;

  // Bind the telemetry server on all interfaces instead of loopback.
  bool telemetry_bind_any = false;

  // Queries slower than this keep their full TraceSpan tree in a bounded
  // ring served at /tracez (EXPLAIN ANALYZE of the slowest calls). 0 (the
  // default) disables capture and the per-query span allocations with it.
  int64_t slow_query_micros = 0;

  // Capacity of the slow-query trace ring (entries retained).
  size_t slow_query_ring_capacity = 32;

  // Capacity of the maintenance-event ring behind /eventz.
  size_t event_log_capacity = 256;

  // Background reporter cadence: every interval the reporter republishes
  // the storage gauges and rotates the metrics window (so each window slot
  // spans one interval; telemetry_window_slots slots make up the windowed
  // view — the defaults give a sliding last-minute rate).
  int telemetry_report_interval_seconds = 10;
  int telemetry_window_slots = 6;

  kv::Options kv;
};

// Per-call query options; the default preserves the plain fast path.
struct QueryOptions {
  // Collect a TraceSpan tree for this call (planning with cost-model
  // numbers, per-region scans, decode/accumulate) into QueryStats::trace —
  // the EXPLAIN ANALYZE input. Requires a non-null QueryStats out-param;
  // costs a few clock reads and small allocations per stage.
  bool trace = false;
  // Accept partial results when some (but not all) regions fail after
  // retries: the query succeeds with QueryStats::{degraded=true,
  // regions_failed>0} instead of returning the region error. Off by
  // default — strict executions are byte-identical to before this option.
  bool allow_degraded = false;
};

}  // namespace tman::core

#endif  // TMAN_CORE_OPTIONS_H_
