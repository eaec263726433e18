#ifndef TMAN_CLUSTER_CLUSTER_H_
#define TMAN_CLUSTER_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "kvstore/compaction_filter.h"
#include "kvstore/db.h"
#include "kvstore/options.h"
#include "kvstore/scan_filter.h"
#include "kvstore/write_batch.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace tman::cluster {

struct Row {
  std::string key;
  std::string value;
};

// Half-open rowkey interval [start, end); empty end means "to infinity".
struct KeyRange {
  std::string start;
  std::string end;
};

// The caller's side of a ClusterTable::MultiScan, forked once per region
// task so that per-row work runs on the task's own thread:
//   - Fork() is called on the calling thread, once per region task, before
//     any task starts. Exactly one task drives each fork, with no lock on
//     the per-row path.
//   - A fork returning false from Accept stops the scan: every task checks
//     one shared flag before delivering its next row.
//   - Finish(fork) runs once per fork on its task's thread, after the
//     task's last row and any retry, whatever the task's status (a failed
//     or stopped task gets it too), and before any Join. A fork that holds
//     rows back does its deferred work here, still inside its task.
//   - After every task has ended, the caller joins each fork, in region key
//     order. Rows joined this way come out in key order: region order, then
//     window order within a region (key order for sorted windows).
class ScanSink {
 public:
  ScanSink() = default;
  ScanSink(const ScanSink&) = delete;  // forks may hold the sink's address
  ScanSink& operator=(const ScanSink&) = delete;
  virtual ~ScanSink() = default;

  virtual std::unique_ptr<kv::RowSink> Fork() = 0;
  // `fork` is one this sink returned from Fork().
  virtual void Finish(kv::RowSink* fork) { (void)fork; }
  virtual void Join(kv::RowSink* fork) = 0;
};

// Collects streamed rows into a vector, in key order: each fork fills its
// own vector and the join appends it.
class CollectRowsSink : public ScanSink {
 public:
  explicit CollectRowsSink(std::vector<Row>* out) : out_(out) {}

  std::unique_ptr<kv::RowSink> Fork() override;
  void Join(kv::RowSink* fork) override;

 private:
  std::vector<Row>* out_;
};

// Whether `key` falls inside the half-open range.
bool RangeContains(const KeyRange& range, const Slice& key);

// Whether [a.start, a.end) and [b.start, b.end) share at least one key.
bool RangesIntersect(const KeyRange& a, const KeyRange& b);

// The thread-safe mutable key range a region currently owns. Shared between
// the Region and its RegionOwnershipFilter: topology changes move the
// boundary here, and the next rewriting compaction reclaims any rows that
// migrated out (lazy reclamation — no stop-the-world copy on the write
// path).
class OwnedRange {
 public:
  explicit OwnedRange(KeyRange range) : range_(std::move(range)) {}

  KeyRange get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return range_;
  }
  void set(KeyRange range) {
    std::lock_guard<std::mutex> lock(mu_);
    range_ = std::move(range);
  }
  bool Contains(const Slice& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return RangeContains(range_, key);
  }
  bool IsFullKeyspace() const {
    std::lock_guard<std::mutex> lock(mu_);
    return range_.start.empty() && range_.end.empty();
  }

 private:
  mutable std::mutex mu_;
  KeyRange range_;
};

// Compaction filter installed on every region store: drops rows the region
// no longer owns (they migrated to a sibling during a split/merge) and
// delegates everything else to the table's inner filter (e.g. TTL
// retention). While the owned range is the full keyspace and there is no
// inner filter, CouldDropAnything() is false so trivial file moves stay
// enabled — a never-split region compacts exactly as before.
class RegionOwnershipFilter : public kv::CompactionFilter {
 public:
  RegionOwnershipFilter(std::shared_ptr<OwnedRange> owned,
                        const kv::CompactionFilter* inner)
      : owned_(std::move(owned)), inner_(inner) {}

  const char* Name() const override { return "region-ownership"; }

  bool ShouldDrop(int level, const Slice& user_key,
                  const Slice& value) const override {
    if (!owned_->Contains(user_key)) return true;
    return inner_ != nullptr && inner_->ShouldDrop(level, user_key, value);
  }

  bool CouldDropAnything() const override {
    if (inner_ != nullptr && inner_->CouldDropAnything()) return true;
    return !owned_->IsFullKeyspace();
  }

 private:
  std::shared_ptr<OwnedRange> owned_;
  const kv::CompactionFilter* inner_;
};

// A region hosts one contiguous rowkey range of a table, backed by its own
// LSM store (the HBase region analogue). The owned range is dynamic: splits
// shrink it, merges grow it, and the ownership compaction filter lazily
// reclaims rows left behind by a boundary move.
class Region {
 public:
  Region(int id, std::string dir, std::shared_ptr<OwnedRange> owned,
         std::unique_ptr<RegionOwnershipFilter> filter,
         std::unique_ptr<kv::DB> db)
      : id_(id),
        dir_(std::move(dir)),
        owned_(std::move(owned)),
        filter_(std::move(filter)),
        db_(std::move(db)) {}

  // Closes the store; a retired region also removes its directory.
  ~Region();

  // Stable region id, unique within the table across its whole lifetime
  // (splits allocate fresh ids). Doubles as the "shard" label in metrics
  // and scan breakdowns.
  int id() const { return id_; }
  kv::DB* db() { return db_.get(); }
  const std::string& dir() const { return dir_; }

  KeyRange owned_range() const { return owned_->get(); }
  void set_owned_range(KeyRange range) { owned_->set(std::move(range)); }

  // Marks the backing directory for deletion when the last routing snapshot
  // referencing this region is released (merge retires the absorbed side).
  void Retire() { retired_.store(true, std::memory_order_relaxed); }

  // Write/scan accounting, always on (the balancer's load signal even when
  // no metrics registry is attached). The obs counters, when present, carry
  // the same series into the windowed telemetry plane.
  void NoteWrites(uint64_t n);
  void NoteRowsScanned(uint64_t n);
  uint64_t writes_total() const {
    return writes_total_.load(std::memory_order_relaxed);
  }
  uint64_t rows_scanned_total() const {
    return rows_scanned_total_.load(std::memory_order_relaxed);
  }
  void AttachCounters(obs::Counter* writes, obs::Counter* rows_scanned) {
    writes_counter_ = writes;
    rows_scanned_counter_ = rows_scanned;
  }

  // Filtered scan inside the region (push-down execution): all windows run
  // against one iterator stack in the region store (see kv::DB::MultiScan).
  // Sorted windows advance the cursor monotonically instead of re-seeking
  // per window.
  Status MultiScan(const std::vector<kv::ScanWindow>& windows,
                   const kv::ScanFilter* filter, size_t limit,
                   kv::RowSink* sink, kv::ScanStats* stats,
                   kv::MultiScanPerf* perf);

 private:
  int id_;
  std::string dir_;
  std::shared_ptr<OwnedRange> owned_;
  // The filter must outlive the DB (Options::compaction_filter borrows it):
  // declaration order destroys db_ first.
  std::unique_ptr<RegionOwnershipFilter> filter_;
  std::unique_ptr<kv::DB> db_;
  std::atomic<bool> retired_{false};
  std::atomic<uint64_t> writes_total_{0};
  std::atomic<uint64_t> rows_scanned_total_{0};
  obs::Counter* writes_counter_ = nullptr;
  obs::Counter* rows_scanned_counter_ = nullptr;
};

// One row of the routing table: the key range an entry covered when the
// snapshot was built, plus the region serving it. The range is a copy (not
// a live view of Region::owned_range) so an in-flight scan keeps clamping
// against the boundaries it started with even while a split commits.
struct RoutingEntry {
  KeyRange range;
  std::shared_ptr<Region> region;
};

// Immutable sorted routing table. The entries fully partition the keyspace:
// entries[0].range.start == "", entries[last].range.end == "", and each
// entry's end equals the next entry's start. Readers grab a shared_ptr
// snapshot from the table's atomic slot (copy-on-write: splits/merges build
// a new table and swap); no locks on the read or write data path.
class RoutingTable {
 public:
  RoutingTable(uint64_t generation, std::vector<RoutingEntry> entries)
      : generation_(generation), entries_(std::move(entries)) {}

  uint64_t generation() const { return generation_; }
  const std::vector<RoutingEntry>& entries() const { return entries_; }

  // The unique entry whose range contains `key`.
  const RoutingEntry& Find(const Slice& key) const;

  // Entries whose range intersects [range.start, range.end), in key order.
  std::vector<const RoutingEntry*> Intersecting(const KeyRange& range) const;

 private:
  uint64_t generation_;
  std::vector<RoutingEntry> entries_;
};

// Per-region failure accounting for one fan-out scan. Every region task is
// attempted (and retried per the table's RetryPolicy) regardless of other
// regions' failures; the scan's return status is still the first final
// error, so callers that ignore the outcome keep strict semantics.
struct ScanOutcome {
  uint64_t regions_attempted = 0;
  uint64_t regions_failed = 0;  // still failing after retries
  uint64_t retries = 0;         // re-runs across all region tasks
  std::vector<std::pair<int, Status>> region_errors;  // region id -> error
};

// A distributed sorted table: a dynamic set of regions, each owning one
// contiguous rowkey range, spread over the cluster's region servers. Writes
// route through the routing-table snapshot; scans fan out to every region
// whose range intersects the query window and run in parallel on the
// cluster thread pool. SplitRegion/MergeRegions change the topology online:
// concurrent reads keep their snapshot, concurrent writes are teed into the
// moving range's new home, and the routing swap is atomic.
class ClusterTable {
 public:
  // Opens (or creates) the table under `dir`. A ROUTING manifest in the
  // directory restores a previously split/merged topology; without one,
  // `initial_shards` regions are created with the legacy one-byte ranges
  // ["", \x01), [\x01, \x02), ..., [\xNN, "") that reproduce the historical
  // shard-byte placement, and the manifest is written. `base_options` is
  // used for every region store; a caller-set compaction_filter becomes the
  // inner filter behind each region's ownership filter.
  static Status Open(std::string name, std::string dir,
                     kv::Options base_options, int initial_shards,
                     ThreadPool* pool, obs::MetricsRegistry* metrics,
                     std::unique_ptr<ClusterTable>* out);

  ~ClusterTable();

  // One region task of a MultiScan (trace / EXPLAIN ANALYZE input).
  struct RegionScanStat {
    int shard = 0;          // region id
    uint64_t scanned = 0;   // rows the region iterator visited
    uint64_t matched = 0;   // rows that passed the filter into the sink
    double wait_ms = 0;     // scan start -> task start (~0 run inline)
    double scan_ms = 0;     // time inside the region scan itself
  };

  const std::string& name() const { return name_; }
  // Live region count (dynamic once the balancer splits/merges).
  int num_shards() const;
  // Monotone routing-table version; bumps on every split/merge.
  uint64_t routing_generation() const;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Status Get(const Slice& key, std::string* value);

  // Groups the batch rows by owning region and writes one batch per region,
  // in parallel on the cluster thread pool (each region owns its own LSM
  // store, so cross-region writes never contend). With background flushes
  // enabled each write only pays WAL append + memtable insert; flush and
  // compaction latency moves off this path onto the maintenance pool.
  Status BatchPut(const std::vector<Row>& rows);

  // As above, with caller-chosen write options (e.g. wo.sync=true to fsync
  // each region's WAL append before the batch is acknowledged — the
  // durability level a crash-safe online backfill needs).
  Status BatchPut(const std::vector<Row>& rows, const kv::WriteOptions& wo);

  // Bulk load with BatchPut's contract: groups `rows` by owning region and
  // sorts each group; where the call repeats a key, its last row wins.
  // Regions load in parallel on the cluster pool. Each region gets one
  // SSTable, built with kv::SstFileWriter and installed by
  // DB::IngestExternalFile (moved, not copied): no WAL, no memtable, no
  // compaction debt, and durable when the call returns. A region whose
  // store refuses the file (Status::Overlap: it holds rows in the group's
  // key range, perhaps from a concurrent write) takes its group as write
  // batches of a few thousand rows, as BatchPut writes them; so does every
  // region of a table whose compaction filter could expire rows, since no
  // compaction would rewrite an ingested file. On a per-region failure the
  // remaining regions still load; the first error is returned.
  Status BulkLoad(const std::vector<Row>& rows);

  // Scans all `ranges` with the filter pushed down to the regions (§V-G).
  // Windows are clamped to and grouped by region, and each region runs ONE
  // task executing its whole batch over a single iterator stack
  // (kv::DB::MultiScan). The tasks run through ThreadPool::ParallelFor, so
  // the calling thread is one of the workers and a one-region scan runs
  // inline. `sink` is forked once per task, each task finishes its own fork
  // after its last row, and the forks are joined in region key order after
  // every task has ended (see ScanSink); a fork declining a row stops every
  // task before its next row.
  //
  // A non-zero `limit` applies per window per region; windows that overlap
  // deliver their overlap once per window, and unsorted windows just
  // re-seek. Windows arriving sorted by start key (the planner's contract)
  // keep their order within each region group, which is what enables seek
  // elision downstream. `breakdown` (one entry per region task) and `perf`
  // (the read-path counters summed across regions) are filled after all
  // tasks have ended, never concurrently.
  Status MultiScan(const std::vector<KeyRange>& ranges,
                   const kv::ScanFilter* filter, size_t limit,
                   ScanSink* sink, kv::ScanStats* stats,
                   std::vector<RegionScanStat>* breakdown = nullptr,
                   kv::MultiScanPerf* perf = nullptr,
                   ScanOutcome* outcome = nullptr);

  // Same windows, but without push-down: all rows in the ranges are
  // shipped back and the filter is applied caller-side. Models systems that
  // cannot execute filters in the storage layer; stats count every shipped
  // row as scanned.
  Status ScanWithoutPushdown(const std::vector<KeyRange>& ranges,
                             const kv::ScanFilter* filter,
                             std::vector<Row>* out, kv::ScanStats* stats);

  // Splits the region at its approximate byte-weighted median key (sampled
  // from the store's SSTable indexes after a flush). See SplitRegionAt.
  Status SplitRegion(int region_id);

  // Splits region `region_id` = [a, c) at `split_key` (must be strictly
  // inside) into [a, split_key) staying put and [split_key, c) moving to a
  // fresh region store. Online: concurrent writes to the moving half are
  // teed and replayed, concurrent scans keep their routing snapshot (the
  // source region still holds the moved rows until lazy reclamation), and
  // the routing swap + ROUTING manifest commit are atomic. The write path
  // is only gated for the two brief tee install/drain windows, never for
  // the copy itself.
  Status SplitRegionAt(int region_id, const std::string& split_key);

  // Merges two adjacent regions: the right range is copied into the left
  // region's store (after compacting away any stale out-of-range rows the
  // left store still held), the left region's range grows to cover both,
  // and the right region is retired — its directory is deleted once the
  // last in-flight scan snapshot releases it. Argument order is free;
  // adjacency is required.
  Status MergeRegions(int region_id_a, int region_id_b);

  // Compacts one region's store (the balancer's post-split lazy-reclaim
  // hook: the ownership filter drops migrated rows during the rewrite).
  Status CompactRegion(int region_id);

  // Region-task retry policy for MultiScan. With the default
  // (max_retries == 0) failed tasks are never re-run and the scan path is
  // byte-identical to the no-retry build. A task that failed before
  // delivering a row re-runs its whole batch. One that already delivered
  // rows is retried only when its windows are sorted and disjoint and the
  // scan has no limit; it then resumes after the last delivered key, so no
  // row is streamed twice.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Split/merge lifecycle events ("region_split", "region_merge") are
  // appended here when set (the /eventz ring). Borrowed; must outlive the
  // table.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

  Status Flush();
  Status CompactAll();

  // Total SSTable bytes across regions (storage-cost accounting).
  uint64_t TotalBytes();

  // Element-wise aggregate of the per-region storage-engine stats (level
  // file counts/bytes, flush/compaction work, write-stall time).
  kv::DB::Stats GetStorageStats();

  // One entry per region, in key order: region id (the `shard` label), its
  // owned key range, the store's directory, cumulative write/scan activity
  // (the balancer's load signal) and the full DB::Stats snapshot plus
  // sticky background error (the /statusz per-region breakdown).
  struct RegionStats {
    int shard = 0;  // region id
    KeyRange range;
    std::string db_name;
    uint64_t writes_total = 0;
    uint64_t rows_scanned_total = 0;
    uint64_t sstable_bytes = 0;
    Status background_error;
    kv::DB::Stats stats;
  };
  std::vector<RegionStats> GetPerRegionStats();

  // Topology-change counters (also exported as
  // tman_cluster_region_{splits,merges}_total when metrics are attached).
  uint64_t splits_performed() const {
    return splits_performed_.load(std::memory_order_relaxed);
  }
  uint64_t merges_performed() const {
    return merges_performed_.load(std::memory_order_relaxed);
  }

 private:
  ClusterTable(std::string name, std::string dir, kv::Options base_options,
               ThreadPool* pool, obs::MetricsRegistry* metrics);

  // Writes teed while a key range migrates between regions (split: upper
  // half to the new store; merge: right range into the left store). The
  // tee lock also linearizes same-range DB writes with their tee append so
  // replay order matches commit order.
  struct MigrationTee {
    KeyRange range;
    kv::DB* target = nullptr;
    std::mutex mu;
    kv::WriteBatch deltas;
    uint64_t rows = 0;
  };

  std::shared_ptr<const RoutingTable> Routing() const {
    std::lock_guard<std::mutex> lock(routing_mu_);
    return routing_;
  }

  void StoreRouting(std::shared_ptr<const RoutingTable> table) {
    std::lock_guard<std::mutex> lock(routing_mu_);
    routing_ = std::move(table);
  }

  // Builds a region (owned-range state, ownership filter chained over the
  // table's inner filter, store open, metric handles) rooted at `dir_/dir`.
  Status NewRegion(int id, const std::string& dir, KeyRange range,
                   std::shared_ptr<Region>* out);

  // Restores the topology from the ROUTING manifest, or creates the
  // initial `initial_shards` one-byte-range layout and persists it. Sweeps
  // region directories the manifest does not reference (torn splits).
  Status LoadOrInit(int initial_shards);

  // Atomically persists `table` as the ROUTING manifest (tmp + sync +
  // rename) — the commit point a reopen recovers from.
  Status PersistRouting(const RoutingTable& table);

  // Write-path helper: routes one mutation through the snapshot, applies
  // it, and tees it when it falls into a migrating range.
  Status RoutedWrite(const Slice& key, const Slice& value, bool is_delete);

  // Runs `write` (one region's part of a batch write) and, if it succeeds,
  // appends `teed`, the rows of that part inside the tee's range, to the
  // tee. The tee lock is held across both, so the replay keeps commit
  // order. Without a tee or teed rows it just runs `write`.
  static Status WriteTeed(MigrationTee* tee, const kv::WriteBatch& teed,
                          const std::function<Status()>& write);

  // The rows of `rows` inside the tee's range, as a batch for the tee.
  static kv::WriteBatch TeedRows(const MigrationTee* tee,
                                 std::span<const Row* const> rows);

  // Builds one SSTable of `rows` (sorted, unique keys) inside the region's
  // directory and ingests it, teed as WriteTeed tees a write; the file is
  // removed if the ingest fails.
  Status IngestGroup(MigrationTee* tee, Region* region,
                     std::span<const Row* const> rows);

  // Writes `rows` into the region as write batches of kBulkBatchRows rows,
  // each teed by WriteTeed.
  static Status WriteGroup(MigrationTee* tee, Region* region,
                           std::span<const Row* const> rows);

  void EmitTopologyEvent(const char* type,
                         std::vector<std::pair<std::string, std::string>>
                             fields);

  kv::Env* env() const;

  std::string name_;
  std::string dir_;
  kv::Options base_options_;  // per-region store options (sans ownership filter)
  ThreadPool* pool_;
  obs::MetricsRegistry* metrics_;
  obs::EventLog* event_log_ = nullptr;
  RetryPolicy retry_;
  std::atomic<uint64_t> bulk_seq_{0};  // unique names for bulk-load temps

  // The live routing snapshot (copy-on-write). Readers copy the
  // shared_ptr under routing_mu_ (held only for the copy — an
  // uncontended lock, unlike std::atomic<shared_ptr>, is TSan-visible
  // on every toolchain); split/merge build a new table and publish it
  // under admin_mu_.
  mutable std::mutex routing_mu_;
  std::shared_ptr<const RoutingTable> routing_;

  // Shared by every writer (Put/Delete/BatchPut/BulkLoad), unique for the
  // brief tee install/drain windows of a split/merge. migration_ is only
  // written under the unique gate and only read under the shared gate.
  std::shared_mutex write_gate_;
  std::shared_ptr<MigrationTee> migration_;

  // Serializes topology changes (one split/merge at a time per table).
  std::mutex admin_mu_;
  int next_region_id_ = 0;

  std::atomic<uint64_t> splits_performed_{0};
  std::atomic<uint64_t> merges_performed_{0};

  // Registry handles (all null = metrics off).
  obs::Counter* scans_ = nullptr;
  obs::Counter* region_retries_ = nullptr;
  obs::Counter* region_failures_ = nullptr;
  obs::Counter* rows_streamed_ = nullptr;
  obs::Counter* region_splits_ = nullptr;
  obs::Counter* region_merges_ = nullptr;
  obs::Histogram* fanout_regions_ = nullptr;
  obs::Histogram* scan_micros_ = nullptr;
  obs::Histogram* wait_micros_ = nullptr;
};

// A simulated cluster: `num_servers` logical region servers sharing a
// thread pool with one thread per server. Tables are created with a shard
// count; shard i is hosted by server (i % num_servers). A second pool of
// the same size runs background memtable flushes and compactions for all
// region stores (the HBase flusher/compactor threads analogue); it is kept
// separate from the request pool so maintenance work queued behind writer
// tasks can never deadlock a BatchPut that is stalled on backpressure.
class Cluster {
 public:
  // base_dir is created if missing; each table gets a subdirectory.
  Cluster(std::string base_dir, int num_servers, kv::Options options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates a table of `num_shards` regions. `options_override` (borrowed
  // for the call) replaces the cluster-wide kv::Options for this table's
  // region stores — e.g. a per-table compaction filter or memtable size;
  // the cluster's maintenance pool is still wired in when the override
  // leaves background_pool unset.
  Status CreateTable(const std::string& name, int num_shards,
                     const kv::Options* options_override = nullptr);
  Status DropTable(const std::string& name);
  ClusterTable* GetTable(const std::string& name);
  std::vector<std::string> TableNames();

  int num_servers() const { return num_servers_; }
  ThreadPool* pool() { return &pool_; }

 private:
  std::string base_dir_;
  int num_servers_;
  kv::Options options_;
  ThreadPool pool_;     // request execution (scans, batched writes)
  ThreadPool bg_pool_;  // flush/compaction; outlives tables_ (decl. order)
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<ClusterTable>> tables_;
};

}  // namespace tman::cluster

#endif  // TMAN_CLUSTER_CLUSTER_H_
