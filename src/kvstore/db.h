#ifndef TMAN_KVSTORE_DB_H_
#define TMAN_KVSTORE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvstore/dbformat.h"
#include "kvstore/env.h"
#include "kvstore/event_listener.h"
#include "kvstore/iterator.h"
#include "kvstore/log.h"
#include "kvstore/memtable.h"
#include "kvstore/options.h"
#include "kvstore/scan_filter.h"
#include "kvstore/version.h"
#include "kvstore/write_batch.h"
#include "obs/metrics.h"

namespace tman {
class ThreadPool;
}  // namespace tman

namespace tman::kv {

// Embedded LSM key-value store: WAL + skiplist memtable + leveled SSTables.
// The public cursor API (NewIterator/Scan) exposes user keys; internal
// sequence numbers and tombstones are collapsed.
//
// Thread model: any number of concurrent readers and writers. Concurrent
// writers group-commit: they queue their batches, the current leader folds
// the queue into one WAL record, appends (and fsyncs when any grouped write
// asked for sync), applies the folded batch to the memtable itself (the
// memtable's only writer), publishes visibility (SetLastSequence) and wakes
// the followers, so readers never observe a partially applied group. When
// the active memtable fills it is swapped for a fresh one and the
// frozen ("immutable") memtable is flushed by a background worker, which
// also runs leveled compactions; reads are served from consistent
// {mem, imm, version} snapshots throughout. Writers are throttled with
// short sleeps once L0 grows past l0_slowdown_trigger and stall completely
// at l0_stop_trigger (see Stats).
class DB {
 public:
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // Directory this DB lives in (as passed to Open).
  const std::string& name() const { return name_; }

  // Effective options (env resolved). Lets callers build SstFileWriters
  // that write through this DB's environment.
  const Options& options() const { return options_; }

  Status Put(const WriteOptions& wo, const Slice& key, const Slice& value);
  Status Delete(const WriteOptions& wo, const Slice& key);
  Status Write(const WriteOptions& wo, WriteBatch* batch);
  Status Get(const ReadOptions& ro, const Slice& key, std::string* value);

  // Iterator over user keys at the current snapshot. The caller owns it.
  Iterator* NewIterator(const ReadOptions& ro);

  // Filtered range scan [start, end); the filter (may be nullptr) runs
  // inside the storage layer ("push-down"). limit==0 means unlimited.
  // Thin adapter over the sink-based overload below.
  Status Scan(const ReadOptions& ro, const Slice& start, const Slice& end,
              const ScanFilter* filter, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out,
              ScanStats* stats);

  // Streaming scan: matching rows are delivered to `sink` as the iterator
  // produces them; the sink returning false stops the scan immediately
  // (rows past the stop are neither scanned nor counted).
  Status Scan(const ReadOptions& ro, const Slice& start, const Slice& end,
              const ScanFilter* filter, size_t limit, RowSink* sink,
              ScanStats* stats);

  // Batched scan: runs every window of `windows` against ONE iterator stack
  // built over a single snapshot, in order. Results are byte-identical to
  // issuing one Scan per window back to back (same filter push-down,
  // per-window limit, and sink early-termination — except that a sink stop
  // ends the whole batch). When the windows are sorted and non-overlapping
  // the cursor advances monotonically, so a window whose start lies at or
  // past the previous window's end reuses the current position instead of
  // re-seeking every level (see MultiScanPerf::seeks_saved), and an
  // exhausted iterator proves all remaining in-order windows empty without
  // touching storage. Unsorted or overlapping batches are still correct —
  // they just fall back to a fresh Seek per window. Sequential block
  // readahead (64 KiB) is enabled unless ro.readahead_bytes is already set.
  // `perf` (optional) receives the read-path counters for this call.
  Status MultiScan(const ReadOptions& ro, const std::vector<ScanWindow>& windows,
                   const ScanFilter* filter, size_t limit, RowSink* sink,
                   ScanStats* stats, MultiScanPerf* perf = nullptr);

  struct IngestOptions {
    // Move (rename) the file into the DB directory instead of copying it.
    // The source file is consumed on success; with false it is left intact.
    bool move_file = false;
  };

  // Installs an SSTable built by kv::SstFileWriter directly into the
  // version, bypassing the WAL/memtable write path (offline backfill).
  // The file's user-key range must not overlap any live key range: a
  // non-empty memtable is flushed first, and if any live SSTable then
  // overlaps the file's range the ingest is refused with Status::Overlap
  // (an InvalidArgument whose IsOverlap() is set; ingested rows carry
  // sequence 0, so overlap would break LSM version ordering). The file is
  // copied/renamed to its allocated table number, synced, and committed
  // through the MANIFEST before the call returns — the same durability
  // order as a flush. It always lands at the last level.
  Status IngestExternalFile(const IngestOptions& io,
                            const std::string& file_path);

  // Synchronously persists all buffered writes to L0 (and runs any pending
  // compactions). Waits for in-flight background work first, so the DB is
  // quiescent afterwards. No-op when nothing is buffered.
  Status Flush();

  // Compacts everything down to the last occupied level.
  Status CompactAll();

  // Estimates the byte-weighted median user key of [start, end) (empty end
  // = +infinity) by sampling the index-block separator keys of every
  // SSTable overlapping the range — each separator stands for ~one data
  // block, so the sample tracks bytes, not row counts. Only on-disk data is
  // consulted; callers wanting memtable rows included flush first. Returns
  // NotFound when the range holds too little data to name an interior key
  // (the returned key is always strictly inside the range). No data-block
  // I/O; runs off the pinned current version.
  Status GetApproximateMedianKey(const Slice& start, const Slice& end,
                                 std::string* median);

  // Clears a *transient* sticky background error (failed flush fsync,
  // ENOSPC, ...) by re-running the failed flush work inline against the
  // current memtable set. Returns OK once the DB is writable again (also
  // when there was no error to clear). Corruption is not transient and is
  // returned unchanged — the store needs repair, not a retry.
  Status Resume();

  // Per-file result of VerifyIntegrity.
  struct IntegrityReport {
    struct FileResult {
      int level = 0;
      uint64_t number = 0;
      uint64_t file_size = 0;
      uint64_t blocks = 0;  // data blocks checksummed
      Status status;
    };
    std::vector<FileResult> files;
    uint64_t files_checked = 0;
    uint64_t blocks_checked = 0;
    uint64_t files_corrupt = 0;
  };

  // Walks the current MANIFEST state and re-reads every data block of every
  // live SSTable, verifying its CRC trailer (bypassing the block cache).
  // Fills `report` (may be nullptr) and returns the first corruption found.
  Status VerifyIntegrity(IntegrityReport* report);

  struct Stats {
    std::vector<int> files_per_level;
    std::vector<uint64_t> bytes_per_level;
    uint64_t memtable_bytes = 0;       // active memtable
    uint64_t imm_memtable_bytes = 0;   // frozen memtable awaiting flush
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
    // Background-work accounting.
    uint64_t flush_count = 0;              // memtable -> L0 flushes
    uint64_t compaction_count = 0;         // merge compactions (not moves)
    uint64_t compaction_bytes_read = 0;    // input SSTable bytes
    uint64_t compaction_bytes_written = 0; // output SSTable bytes
    // Write backpressure accounting.
    uint64_t stall_count = 0;   // slowdown sleeps + hard stalls
    uint64_t stall_micros = 0;  // total time writers spent throttled
    uint64_t wal_syncs = 0;     // fsyncs issued for sync writes
    // Recovery accounting (filled by Open, bumped by Resume).
    uint64_t wal_records_recovered = 0;  // WAL records replayed at Open
    uint64_t wal_bytes_recovered = 0;    // bytes of good replayed records
    uint64_t wal_bytes_dropped = 0;      // torn/corrupt tail bytes discarded
    uint64_t wal_torn_tails = 0;         // WALs ending in a torn record
    uint64_t resume_count = 0;           // successful Resume() calls
    // Data lifecycle accounting.
    uint64_t compaction_filter_dropped = 0;     // expired entries removed
    uint64_t compaction_filter_tombstoned = 0;  // expired -> tombstone
    uint64_t files_ingested = 0;  // external SSTables installed
    uint64_t rows_ingested = 0;   // entries across those files
  };
  Stats GetStats();

  // Sticky background error (OK while healthy). Once a background flush or
  // compaction fails, writes refuse with this status until Resume() clears
  // it — the /healthz input.
  Status background_error() {
    std::lock_guard<std::mutex> lock(mu_);
    return bg_error_;
  }

 private:
  // One queued write (group commit). Writers park on `cv` until the leader
  // completes their batch; a null batch marks an exclusive maintenance
  // operation (Flush/CompactAll) holding the writer slot.
  struct Writer {
    Writer(WriteBatch* b, bool s) : batch(b), sync(s) {}
    WriteBatch* batch;
    bool sync;
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  // Inputs of one compaction round, picked against a Version snapshot.
  struct CompactionJob {
    int level = -1;
    std::vector<FileMetaPtr> inputs_n;    // files at `level`
    std::vector<FileMetaPtr> inputs_np1;  // overlapping files at level+1
  };

  DB(const Options& options, std::string name);

  // Registry handles, resolved once at construction when Options::metrics
  // is set. Invariant (asserted at construction): metrics_ is non-null iff
  // Options::metrics was non-null, and every dereference of metrics_ is
  // guarded by a null check at the use site — recording is never assumed
  // on. Read-path fast paths may additionally skip stopwatch reads when
  // metrics are off. Counters are shared across DBs pointed at the same
  // registry: increments aggregate.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry* registry);
    obs::Histogram* get_micros;
    obs::Histogram* write_micros;
    obs::Histogram* scan_micros;
    obs::Histogram* multiscan_micros;
    obs::Histogram* wal_sync_micros;
    obs::Histogram* flush_micros;
    obs::Histogram* compaction_micros;
    obs::Counter* scan_rows;
    obs::Counter* multiscan_windows;
    obs::Counter* multiscan_seeks_saved;
    obs::Counter* multiscan_block_reuse;
    obs::Counter* multiscan_blocks_readahead;
    obs::Counter* bloom_checks;
    obs::Counter* bloom_useful;
    obs::Counter* flushes;
    obs::Counter* compactions;
    obs::Counter* compaction_bytes_read;
    obs::Counter* compaction_bytes_written;
    obs::Counter* stalls;
    obs::Counter* stall_micros;
    obs::Counter* wal_syncs;
    obs::Counter* recovery_wal_records;
    obs::Counter* recovery_wal_bytes_dropped;
    obs::Counter* recovery_torn_tails;
    obs::Counter* recovery_resumes;
    obs::Counter* compaction_filter_dropped;
    obs::Counter* compaction_filter_tombstoned;
    obs::Counter* ingest_files;
    obs::Counter* ingest_rows;
    obs::Counter* sstable_reads_per_level[GetPerf::kMaxLevels];
  };

  Status Recover();
  Status ReplayWal(uint64_t wal_number);

  // --- Write path (mu_ held unless noted) ---

  // Blocks until the active memtable has room: applies slowdown/stop
  // backpressure, freezes a full memtable into imm_ (rotating the WAL) and
  // schedules its background flush. May release and re-acquire `lock`.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock);

  // Write() minus the latency recording (the group-commit body).
  Status WriteImpl(const WriteOptions& wo, WriteBatch* batch);

  // Folds one backpressure episode into the stall counters (mu_ held).
  void RecordStall(uint64_t micros) {
    stall_count_++;
    stall_micros_ += micros;
    if (metrics_ != nullptr) {
      metrics_->stalls->Inc();
      metrics_->stall_micros->Inc(micros);
    }
  }

  // Folds the front run of queued writers into one batch (up to a size
  // cap); *last_writer is set to the last writer included.
  WriteBatch* BuildBatchGroup(Writer** last_writer);

  // Runs `fn` (under mu_) with the writer queue held and background work
  // drained, so it has exclusive access to memtables and versions.
  Status RunExclusive(const std::function<Status()>& fn);

  // --- Flush / compaction (mu_ held on entry and exit) ---

  // Builds an L0 table from `mem` and installs it. When `lock` is non-null
  // the mutex is released during the table build (background path).
  Status WriteLevel0Table(const std::shared_ptr<MemTable>& mem,
                          std::unique_lock<std::mutex>* lock);

  // Flushes imm_ and deletes its WAL.
  Status FlushImmutable(std::unique_lock<std::mutex>* lock);

  // Flushes the active memtable inline and rotates the WAL (synchronous
  // paths: Flush, CompactAll, IngestExternalFile and close).
  Status FlushActiveLocked();

  // Picks the next compaction round against `current`; false if none.
  bool PickCompaction(const VersionPtr& current, CompactionJob* job) const;

  // Executes one compaction round. When `lock` is non-null the mutex is
  // released during the merge (background path).
  Status RunCompaction(const CompactionJob& job,
                       std::unique_lock<std::mutex>* lock);

  // Runs compaction rounds inline until the tree satisfies its invariants.
  Status CompactLoopLocked();

  // --- Background scheduling (mu_ held) ---

  bool HasBackgroundWork() const;
  void MaybeScheduleBackground();
  void BackgroundCall();  // entry point on the background pool

  // --- Event delivery (Options::listeners) ---
  //
  // State changes queue a closure under mu_ at the point they commit;
  // DrainEvents() swaps the queue out under mu_ and fires the listeners
  // with no DB lock held, at public-API boundaries and at the end of each
  // background run. Both are no-ops with no listeners registered.
  bool HasListeners() const { return !options_.listeners.empty(); }
  void QueueEvent(std::function<void(EventListener*)> fn);  // mu_ held
  void DrainEvents();                                       // mu_ NOT held
  // Stall-episode conveniences for MakeRoomForWrite (mu_ held).
  void QueueStallBegin(WriteStallInfo::Cause cause);
  void QueueStallEnd(WriteStallInfo::Cause cause, uint64_t micros);

  // Deletes on-disk files no longer referenced. Decisions are made under
  // mu_; when `lock` is non-null the I/O (scan + unlinks) runs unlocked.
  void RemoveObsoleteFilesLocked(std::unique_lock<std::mutex>* lock = nullptr);
  uint64_t MaxBytesForLevel(int level) const;

  // Snapshot of read state (memtables + version + sequence).
  struct ReadSnapshot {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<MemTable> imm;  // may be null
    VersionPtr version;
    SequenceNumber sequence;
  };
  ReadSnapshot AcquireReadSnapshot();

  Options options_;
  std::string name_;
  Env* env_;
  InternalKeyComparator icmp_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<Metrics> metrics_;  // null when Options::metrics unset

  std::mutex mu_;
  std::condition_variable bg_cv_;  // background work finished / state change
  std::shared_ptr<MemTable> mem_;
  std::shared_ptr<MemTable> imm_;  // frozen memtable being flushed
  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<LogWriter> wal_;
  uint64_t wal_number_ = 0;
  uint64_t imm_wal_number_ = 0;  // WAL backing imm_ (0 = none)

  // Group commit.
  std::deque<Writer*> writers_;
  WriteBatch tmp_batch_;

  // Background worker state.
  ThreadPool* bg_pool_ = nullptr;          // null until Open installs it
  std::unique_ptr<ThreadPool> owned_pool_;  // when no shared pool was given
  bool bg_active_ = false;       // a background task is scheduled/running
  bool shutting_down_ = false;
  bool recovered_ = false;       // Recover() completed; safe to flush on close
  int exclusive_waiters_ = 0;    // RunExclusive callers draining background
  Status bg_error_;              // sticky failure from background work
  std::set<uint64_t> pending_outputs_;  // files being written, GC-protected

  // Events queued (under mu_) and not yet delivered to listeners.
  // events_pending_ mirrors !pending_events_.empty() so the write path's
  // per-op DrainEvents call is one relaxed load, not a mutex round-trip.
  std::vector<std::function<void(EventListener*)>> pending_events_;
  std::atomic<bool> events_pending_{false};

  // Counters (guarded by mu_).
  uint64_t flush_count_ = 0;
  uint64_t compaction_count_ = 0;
  uint64_t compaction_bytes_read_ = 0;
  uint64_t compaction_bytes_written_ = 0;
  uint64_t stall_count_ = 0;
  uint64_t stall_micros_ = 0;
  uint64_t wal_syncs_ = 0;
  uint64_t wal_records_recovered_ = 0;
  uint64_t wal_bytes_recovered_ = 0;
  uint64_t wal_bytes_dropped_ = 0;
  uint64_t wal_torn_tails_ = 0;
  uint64_t resume_count_ = 0;
  uint64_t compaction_filter_dropped_ = 0;
  uint64_t compaction_filter_tombstoned_ = 0;
  uint64_t files_ingested_ = 0;
  uint64_t rows_ingested_ = 0;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_DB_H_
