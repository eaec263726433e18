#ifndef TMAN_KVSTORE_OPTIONS_H_
#define TMAN_KVSTORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tman {
class ThreadPool;
}  // namespace tman

namespace tman::obs {
class MetricsRegistry;
}  // namespace tman::obs

namespace tman::kv {

class CompactionFilter;
class Env;
class EventListener;

struct Options {
  // Size at which the memtable is flushed to an L0 SSTable.
  size_t write_buffer_size = 4 * 1024 * 1024;

  // Capacity of the shared block cache in bytes.
  size_t block_cache_bytes = 8 * 1024 * 1024;

  // Number of L0 files that triggers a compaction into L1.
  int l0_compaction_trigger = 4;

  // Number of L0 files at which incoming writes are throttled with short
  // sleeps so the background compactor can catch up (soft backpressure).
  int l0_slowdown_trigger = 8;

  // Number of L0 files at which writes stall completely until a compaction
  // reduces L0 (hard backpressure).
  int l0_stop_trigger = 12;

  // Thread pool for background flushes/compactions, shared across DBs (the
  // cluster passes its maintenance pool here). nullptr means each DB owns a
  // private single worker thread.
  tman::ThreadPool* background_pool = nullptr;

  // Size budget of L1; each deeper level is 10x larger.
  uint64_t base_level_bytes = 8 * 1024 * 1024;

  // Max SSTable file size produced by compactions.
  uint64_t max_file_bytes = 2 * 1024 * 1024;

  // When set, leveled compactions consult this filter on the newest version
  // of each surviving user key (TTL/retention). Borrowed pointer; must be
  // thread-safe and outlive the DB. See kvstore/compaction_filter.h.
  const CompactionFilter* compaction_filter = nullptr;

  bool create_if_missing = true;

  // If true, WAL recovery refuses to open when it hits a corrupt record in
  // the middle of the log (bad checksum, implausible length) and surfaces
  // Corruption instead. A torn tail — a truncated final record from a crash
  // mid-write — is tolerated in both modes; only the un-acknowledged tail
  // bytes are dropped and counted in DB::Stats.
  bool paranoid_checks = false;

  Env* env = nullptr;  // defaults to Env::Default()

  // Metrics registry the DB records into (tman_kv_* latency histograms and
  // event counters; see DESIGN.md "Observability"). Shared across DBs:
  // counters are live increments, so several region DBs pointed at one
  // registry aggregate naturally. nullptr disables recording entirely —
  // hot paths skip even the stopwatch reads.
  tman::obs::MetricsRegistry* metrics = nullptr;

  // Maintenance-event listeners (flush/compaction/stall/bg-error/ingest
  // callbacks; see kvstore/event_listener.h for the delivery contract).
  // Borrowed pointers shared across DBs; must be thread-safe and outlive
  // every DB they are attached to. Empty (the default) keeps the event
  // paths zero-cost.
  std::vector<EventListener*> listeners;
};

struct MultiScanPerf;

struct ReadOptions {
  // If true, data blocks read during scans are inserted into the block
  // cache (point lookups always use the cache).
  bool fill_cache = true;

  // Sequential block readahead budget in bytes. When > 0 and a table
  // iterator detects a sequential block access pattern (the next data block
  // starts where the previous one ended), it reads up to this many further
  // contiguous data blocks with one I/O and parks them in the block cache.
  // 0 disables readahead. DB::MultiScan sets it to 64 KiB when the caller
  // left it 0; plain scans leave it 0.
  size_t readahead_bytes = 0;

  // When non-null, table iterators fold block-reuse and readahead events
  // into these counters (borrowed; must outlive every iterator created
  // with this ReadOptions). Set internally by DB::MultiScan.
  MultiScanPerf* perf = nullptr;
};

struct WriteOptions {
  // If true, the WAL write is flushed before the write is acknowledged.
  bool sync = false;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_OPTIONS_H_
