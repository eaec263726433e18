#ifndef TMAN_CORE_QUERY_STATS_H_
#define TMAN_CORE_QUERY_STATS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace tman::core {

// Per-query accounting, filled consistently by all six fundamental queries
// and the three count queries (fields a query type has no work for stay 0).
// Counters accumulate (+=) so one QueryStats can total a batch of queries;
// timings likewise accumulate.
struct QueryStats {
  // Key windows scanned in the storage layer. Top-k similarity accumulates
  // across its expanding-radius rounds.
  uint64_t windows = 0;
  // Index values the windows cover (planner cost-model output).
  uint64_t index_values = 0;
  // Trajectory rows the storage layer touched (the paper's candidate
  // count). For secondary-index plans: primary rows fetched.
  uint64_t candidates = 0;
  // Rows returned after all filtering (count queries: the count).
  uint64_t results = 0;
  // Spatial elements inspected while planning (TShape/XZ planners).
  uint64_t elements_visited = 0;
  // TShape shape tests while planning.
  uint64_t shapes_checked = 0;
  // Exact distance evaluations (similarity queries only).
  uint64_t exact_distance_computations = 0;
  // Index lookups + window generation time. Disjoint from the scan/decode
  // time; always <= execution_ms for a single query.
  double planning_ms = 0;
  // Total wall time of the query including planning.
  double execution_ms = 0;
  // Region tasks still failing after retries (degraded executions only;
  // strict executions return the error instead of counting it here).
  uint64_t regions_failed = 0;
  // Region-task re-runs the retry policy performed across all scans.
  uint64_t retries = 0;
  // True when the query returned partial results because one or more
  // regions failed and QueryOptions::allow_degraded accepted the loss.
  bool degraded = false;
  // RBO/CBO decision, e.g. "primary:st-fine" or "count:temporal".
  std::string plan;
  // Per-stage trace tree (EXPLAIN ANALYZE); set only when the query ran
  // with QueryOptions::trace. Render with trace->Render().
  std::shared_ptr<obs::TraceSpan> trace;
};

// System-wide storage-engine accounting, aggregated over every table and
// region store: background flush/compaction work and write backpressure.
// Complements the per-query numbers above with the ingest-side costs the
// paper's sustained-loading experiments measure.
struct StorageStats {
  uint64_t flush_count = 0;               // memtable -> L0 flushes
  uint64_t compaction_count = 0;          // merge compactions
  uint64_t compaction_bytes_read = 0;     // compaction input bytes
  uint64_t compaction_bytes_written = 0;  // compaction output bytes
  uint64_t stall_count = 0;               // writer slowdowns + hard stalls
  uint64_t stall_micros = 0;              // total throttled writer time
  uint64_t wal_syncs = 0;                 // fsyncs for sync writes
  uint64_t sstable_bytes = 0;             // on-disk bytes across levels
  uint64_t memtable_bytes = 0;            // active + frozen memtables
};

}  // namespace tman::core

#endif  // TMAN_CORE_QUERY_STATS_H_
