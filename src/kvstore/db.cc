#include "kvstore/db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/coding.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "kvstore/compaction_filter.h"
#include "kvstore/filename.h"
#include "kvstore/merge_iterator.h"
#include "kvstore/table.h"

namespace tman::kv {

namespace {

// Group-commit size caps (LevelDB's heuristics): large groups amortize the
// WAL append, but a tiny leader batch should not wait behind a megabyte of
// follower data.
constexpr size_t kMaxGroupBytes = 1 << 20;
constexpr size_t kSmallBatchBytes = 128 << 10;

// Sequential block readahead budget of DB::MultiScan when the caller's
// ReadOptions leave readahead_bytes at 0. Readahead only triggers on a
// detected sequential block pattern, so point-ish window batches never
// over-read.
constexpr size_t kMultiScanReadaheadBytes = 64 * 1024;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Iterator over user keys: wraps a merging iterator over internal keys and
// collapses versions/tombstones at a snapshot sequence number. The wrapped
// state (memtables + version) is kept alive by the shared_ptrs captured
// here, so flushes and compactions never invalidate a live iterator.
//
// key()/value() are zero-copy: slices into the child iterator's current
// entry (arena for memtable rows, block storage or the block iterator's
// decode buffer for SSTable rows). They are valid only until the iterator
// moves, per the Iterator contract; the skip logic below copies into
// saved_key_ before advancing for exactly that reason.
class DBIter final : public Iterator {
 public:
  DBIter(std::shared_ptr<MemTable> mem, std::shared_ptr<MemTable> imm,
         VersionPtr version, SequenceNumber sequence, Iterator* internal_iter)
      : mem_(std::move(mem)),
        imm_(std::move(imm)),
        version_(std::move(version)),
        sequence_(sequence),
        iter_(internal_iter) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    iter_->SeekToFirst();
    skipping_ = false;
    FindNextUserEntry();
  }

  void Seek(const Slice& target) override {
    // ikey_buf_ is a member so repeated Seeks (one per MultiScan window)
    // reuse its capacity instead of allocating.
    ikey_buf_.clear();
    AppendInternalKey(&ikey_buf_, target, sequence_, kValueTypeForSeek);
    iter_->Seek(ikey_buf_);
    skipping_ = false;
    FindNextUserEntry();
  }

  void Next() override {
    assert(valid_);
    // Skip the remaining (older) entries of the current user key.
    saved_key_.assign(key_.data(), key_.size());
    skipping_ = true;
    iter_->Next();
    FindNextUserEntry();
  }

  Slice key() const override { return key_; }
  Slice value() const override { return value_; }
  Status status() const override { return iter_->status(); }

 private:
  void FindNextUserEntry() {
    valid_ = false;
    while (iter_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(iter_->key(), &parsed)) {
        iter_->Next();
        continue;
      }
      if (parsed.sequence > sequence_) {
        iter_->Next();
        continue;
      }
      if (skipping_ && parsed.user_key.compare(Slice(saved_key_)) <= 0) {
        iter_->Next();
        continue;
      }
      if (parsed.type == kTypeDeletion) {
        // Shadow all older entries of this key.
        saved_key_.assign(parsed.user_key.data(), parsed.user_key.size());
        skipping_ = true;
        iter_->Next();
        continue;
      }
      key_ = parsed.user_key;   // borrows iter_'s current entry
      value_ = iter_->value();  // stable until iter_ moves
      valid_ = true;
      return;
    }
  }

  std::shared_ptr<MemTable> mem_;
  std::shared_ptr<MemTable> imm_;
  VersionPtr version_;
  const SequenceNumber sequence_;
  std::unique_ptr<Iterator> iter_;
  bool valid_ = false;
  bool skipping_ = false;
  std::string saved_key_;
  std::string ikey_buf_;  // Seek target scratch
  Slice key_;
  Slice value_;
};

// Builds an SSTable from a memtable iterator. Pure I/O: needs no DB state
// beyond the pre-assigned file number in `meta`.
Status BuildTableFromMem(Env* env, const std::string& dbname, MemTable* mem,
                         FileMetaData* meta) {
  const std::string fname = TableFileName(dbname, meta->number);
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  {
    TableBuilder builder(file.get());
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    iter->SeekToFirst();
    assert(iter->Valid());  // callers flush only non-empty memtables
    meta->smallest.DecodeFrom(iter->key());
    for (; iter->Valid(); iter->Next()) {
      builder.Add(iter->key(), iter->value());
      meta->largest.DecodeFrom(iter->key());
    }
    s = builder.Finish();
    if (!s.ok()) return s;
    meta->file_size = builder.FileSize();
  }
  // The table must be durable before the MANIFEST references it and the WAL
  // covering its contents is deleted; otherwise a crash after either loses
  // acknowledged writes.
  s = file->Sync();
  if (!s.ok()) return s;
  return file->Close();
}

}  // namespace

DB::Metrics::Metrics(obs::MetricsRegistry* registry) {
  get_micros = registry->GetHistogram("tman_kv_get_micros");
  write_micros = registry->GetHistogram("tman_kv_write_micros");
  scan_micros = registry->GetHistogram("tman_kv_scan_micros");
  multiscan_micros = registry->GetHistogram("tman_kv_multiscan_micros");
  wal_sync_micros = registry->GetHistogram("tman_kv_wal_sync_micros");
  flush_micros = registry->GetHistogram("tman_kv_flush_micros");
  compaction_micros = registry->GetHistogram("tman_kv_compaction_micros");
  scan_rows = registry->GetCounter("tman_kv_scan_rows_total");
  multiscan_windows = registry->GetCounter("tman_kv_multiscan_windows_total");
  multiscan_seeks_saved =
      registry->GetCounter("tman_kv_multiscan_seeks_saved_total");
  multiscan_block_reuse =
      registry->GetCounter("tman_kv_multiscan_block_reuse_total");
  multiscan_blocks_readahead =
      registry->GetCounter("tman_kv_multiscan_blocks_readahead_total");
  bloom_checks = registry->GetCounter("tman_kv_bloom_checks_total");
  bloom_useful = registry->GetCounter("tman_kv_bloom_useful_total");
  flushes = registry->GetCounter("tman_kv_flushes_total");
  compactions = registry->GetCounter("tman_kv_compactions_total");
  compaction_bytes_read =
      registry->GetCounter("tman_kv_compaction_bytes_read_total");
  compaction_bytes_written =
      registry->GetCounter("tman_kv_compaction_bytes_written_total");
  stalls = registry->GetCounter("tman_kv_write_stalls_total");
  stall_micros = registry->GetCounter("tman_kv_stall_micros_total");
  wal_syncs = registry->GetCounter("tman_kv_wal_syncs_total");
  recovery_wal_records =
      registry->GetCounter("tman_kv_recovery_wal_records_total");
  recovery_wal_bytes_dropped =
      registry->GetCounter("tman_kv_recovery_wal_bytes_dropped_total");
  recovery_torn_tails =
      registry->GetCounter("tman_kv_recovery_torn_tails_total");
  recovery_resumes = registry->GetCounter("tman_kv_recovery_resumes_total");
  compaction_filter_dropped =
      registry->GetCounter("tman_kv_compaction_filter_dropped_total");
  compaction_filter_tombstoned =
      registry->GetCounter("tman_kv_compaction_filter_tombstoned_total");
  ingest_files = registry->GetCounter("tman_kv_ingest_files_total");
  ingest_rows = registry->GetCounter("tman_kv_ingest_rows_total");
  for (int l = 0; l < GetPerf::kMaxLevels; l++) {
    sstable_reads_per_level[l] = registry->GetCounter(
        "tman_kv_sstable_reads_total{level=\"" + std::to_string(l) + "\"}");
  }
}

DB::DB(const Options& options, std::string name)
    : options_(options), name_(std::move(name)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  options_.env = env_;
  block_cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  if (options_.metrics != nullptr) {
    metrics_ = std::make_unique<Metrics>(options_.metrics);
    block_cache_->BindMetrics(
        options_.metrics->GetCounter("tman_kv_block_cache_hits_total"),
        options_.metrics->GetCounter("tman_kv_block_cache_misses_total"));
  }
  mem_ = std::make_shared<MemTable>(icmp_);
  versions_ = std::make_unique<VersionSet>(name_, env_, block_cache_.get());
  // The one metrics invariant: metrics_ mirrors Options::metrics exactly,
  // and every later dereference is null-guarded at the use site.
  assert((metrics_ != nullptr) == (options_.metrics != nullptr));
}

DB::~DB() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    while (bg_active_) bg_cv_.wait(lock);
    // Persist any buffered writes so reopen sees them without WAL replay
    // cost. Skipped when Recover() failed partway: the memtable then holds
    // a partially-replayed WAL (and wal_ was never opened) — flushing it
    // would persist exactly the state recovery refused to accept.
    if (recovered_) {
      if (imm_ != nullptr) FlushImmutable(nullptr);
      if (mem_->num_entries() > 0) FlushActiveLocked();
    }
    if (wal_ != nullptr) wal_->Close();
  }
  // Listeners outlive the DB (Options contract), so the close-time flush
  // events can still be delivered.
  DrainEvents();
  // owned_pool_ (if any) joins its idle worker during member destruction;
  // no task can still be queued because bg_active_ is false.
}

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  std::unique_ptr<DB> db(new DB(options, name));
  Status s = db->Recover();
  if (!s.ok()) return s;
  db->DrainEvents();  // flush/compaction events from WAL replay
  if (db->options_.background_pool != nullptr) {
    db->bg_pool_ = db->options_.background_pool;
  } else {
    db->owned_pool_ = std::make_unique<ThreadPool>(1);
    db->bg_pool_ = db->owned_pool_.get();
  }
  *dbptr = std::move(db);
  return Status::OK();
}

Status DB::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!env_->FileExists(name_)) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(name_ + " does not exist");
    }
  }
  Status s = env_->CreateDirIfMissing(name_);
  if (!s.ok()) return s;

  s = versions_->Recover();
  if (!s.ok()) return s;

  // Replay all WALs present (ascending file number) — after a crash there
  // may be two: the one backing the frozen memtable and the active one.
  // Then flush so that at most one (fresh) WAL exists afterwards.
  std::vector<std::string> children;
  s = env_->GetChildren(name_, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> wals;
  uint64_t max_file_number = 0;
  for (const auto& child : children) {
    uint64_t number;
    std::string suffix;
    if (ParseFileName(child, &number, &suffix)) {
      max_file_number = std::max(max_file_number, number);
      if (suffix == "wal") wals.push_back(number);
    } else if (child.size() > 4 &&
               child.compare(child.size() - 4, 4, ".tmp") == 0) {
      // Leftover temp file from a crashed ingest build or MANIFEST swap.
      // Nothing live ever ends in .tmp at recovery time, and GC skips
      // unparseable names, so collect them here.
      env_->RemoveFile(name_ + "/" + child);
    }
  }
  // A crash can leave numbered files (e.g. a torn ingest copy or flush
  // output) above the persisted next-file counter; without this bump they
  // would sit at or above the GC horizon forever and eventually collide
  // with a fresh allocation.
  versions_->EnsureFileNumberFloor(max_file_number + 1);
  std::sort(wals.begin(), wals.end());
  for (uint64_t number : wals) {
    s = ReplayWal(number);
    if (!s.ok()) return s;
  }
  if (mem_->num_entries() > 0) {
    s = WriteLevel0Table(mem_, nullptr);
    if (!s.ok()) return s;
    mem_ = std::make_shared<MemTable>(icmp_);
  }

  // Start a fresh WAL.
  wal_number_ = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> wal_file;
  s = env_->NewWritableFile(WalFileName(name_, wal_number_), &wal_file);
  if (!s.ok()) return s;
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));
  versions_->SetWalNumber(wal_number_);
  s = versions_->WriteSnapshot();
  if (!s.ok()) return s;
  RemoveObsoleteFilesLocked();
  s = CompactLoopLocked();
  if (s.ok()) recovered_ = true;
  return s;
}

Status DB::ReplayWal(uint64_t wal_number) {
  const std::string fname = WalFileName(name_, wal_number);
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    WriteBatch batch;
    batch.SetContentsFrom(record);
    s = batch.InsertInto(mem_.get());
    if (!s.ok()) return s;
    uint64_t last = batch.Sequence() + batch.Count() - 1;
    if (last > versions_->last_sequence()) {
      versions_->SetLastSequence(last);
    }
  }

  switch (reader.end()) {
    case LogReader::End::kReadError:
      return reader.status();
    case LogReader::End::kBadRecord:
      // Bad checksum / implausible length mid-log: the bytes after it are
      // suspect. Paranoid mode refuses to open; otherwise drop the tail
      // (same consistent-prefix outcome as a torn tail) but account for it.
      if (options_.paranoid_checks) {
        return Status::Corruption("mid-log corruption in " + fname +
                                  " at offset " +
                                  std::to_string(reader.bytes_consumed()));
      }
      break;
    case LogReader::End::kTornTail:
      // Expected after a crash mid-write: only un-synced tail bytes are
      // affected, which were never acknowledged as durable.
      wal_torn_tails_++;
      if (metrics_ != nullptr) metrics_->recovery_torn_tails->Inc();
      break;
    case LogReader::End::kEof:
    case LogReader::End::kNone:
      break;
  }

  uint64_t file_size = 0;
  if (env_->GetFileSize(fname, &file_size).ok() &&
      file_size > reader.bytes_consumed()) {
    const uint64_t dropped = file_size - reader.bytes_consumed();
    wal_bytes_dropped_ += dropped;
    if (metrics_ != nullptr) {
      metrics_->recovery_wal_bytes_dropped->Inc(dropped);
    }
  }
  wal_records_recovered_ += reader.records_read();
  wal_bytes_recovered_ += reader.bytes_consumed();
  if (metrics_ != nullptr) {
    metrics_->recovery_wal_records->Inc(reader.records_read());
  }
  return Status::OK();
}

Status DB::Put(const WriteOptions& wo, const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(wo, &batch);
}

Status DB::Delete(const WriteOptions& wo, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(wo, &batch);
}

Status DB::Write(const WriteOptions& wo, WriteBatch* batch) {
  assert(batch != nullptr);
  if (batch->Count() == 0) return Status::OK();
  // Latency includes group-commit queue wait, as the caller experiences it.
  // The stopwatch read is noise next to the queue wait, so it is taken
  // unconditionally; only the recording is gated on metrics_.
  Stopwatch watch;
  Status s = WriteImpl(wo, batch);
  if (metrics_ != nullptr) {
    metrics_->write_micros->RecordMicros(watch.ElapsedMicros());
  }
  DrainEvents();  // stall / seal events queued while this write held mu_
  return s;
}

Status DB::WriteImpl(const WriteOptions& wo, WriteBatch* batch) {
  Writer w(batch, wo.sync);
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) return w.status;  // a previous leader committed our batch

  // This thread is the leader: it owns the write path (WAL + active
  // memtable) until it pops itself off the queue below.
  Status s = MakeRoomForWrite(lock);
  Writer* last_writer = &w;
  if (s.ok()) {
    WriteBatch* group = BuildBatchGroup(&last_writer);
    const uint64_t seq = versions_->last_sequence() + 1;
    group->SetSequence(seq);
    const uint32_t count = group->Count();
    const bool sync = w.sync;

    // Append + apply without the mutex: followers are parked, this leader
    // is the memtable's only writer (it cannot be swapped while a leader
    // is active), and readers see the pre-write snapshot until
    // SetLastSequence publishes the entries.
    lock.unlock();
    s = wal_->AddRecord(group->rep());
    if (s.ok() && sync) {
      Stopwatch sync_watch;  // one clock read; recorded only when metrics on
      s = env_->SyncFile(wal_->file());
      if (metrics_ != nullptr) {
        metrics_->wal_sync_micros->RecordMicros(sync_watch.ElapsedMicros());
        metrics_->wal_syncs->Inc();
      }
    }
    if (s.ok()) s = group->InsertInto(mem_.get());
    lock.lock();
    if (sync) wal_syncs_++;
    if (s.ok()) {
      versions_->SetLastSequence(seq + count - 1);
    }
    if (group == &tmp_batch_) tmp_batch_.Clear();
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = s;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  return s;
}

WriteBatch* DB::BuildBatchGroup(Writer** last_writer) {
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  size_t size = first->batch->ApproximateSize();
  size_t max_size = kMaxGroupBytes;
  if (size <= kSmallBatchBytes) max_size = size + kSmallBatchBytes;

  *last_writer = first;
  auto iter = writers_.begin();
  for (++iter; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->batch == nullptr) break;  // exclusive maintenance marker
    if (w->sync && !first->sync) {
      break;  // grouping must not weaken a follower's sync guarantee
    }
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch; the caller's batch stays untouched.
      result = &tmp_batch_;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

Status DB::MakeRoomForWrite(std::unique_lock<std::mutex>& lock) {
  bool allow_delay = true;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const int l0_files = versions_->current()->NumFiles(0);
    if (allow_delay && l0_files >= options_.l0_slowdown_trigger &&
        l0_files < options_.l0_stop_trigger) {
      // Soft backpressure: yield 1ms to the compactor, at most once per
      // write, so latency degrades smoothly instead of cliffing at the
      // stop trigger.
      MaybeScheduleBackground();
      QueueStallBegin(WriteStallInfo::Cause::kL0Slowdown);
      const uint64_t start = NowMicros();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      lock.lock();
      const uint64_t stalled = NowMicros() - start;
      RecordStall(stalled);
      QueueStallEnd(WriteStallInfo::Cause::kL0Slowdown, stalled);
      allow_delay = false;
      continue;
    }
    if (mem_->ApproximateMemoryUsage() < options_.write_buffer_size ||
        mem_->num_entries() == 0) {
      // Room left; the num_entries guard keeps a tiny write_buffer_size
      // from freezing an *empty* memtable (whose arena baseline — the
      // skiplist head block — can already exceed the budget).
      return Status::OK();
    }
    if (imm_ != nullptr) {
      // The previous flush has not finished: hard stall.
      MaybeScheduleBackground();
      QueueStallBegin(WriteStallInfo::Cause::kMemtableWait);
      const uint64_t start = NowMicros();
      bg_cv_.wait(lock);
      const uint64_t stalled = NowMicros() - start;
      RecordStall(stalled);
      QueueStallEnd(WriteStallInfo::Cause::kMemtableWait, stalled);
      continue;
    }
    if (versions_->current()->NumFiles(0) >= options_.l0_stop_trigger) {
      // Too many L0 files: hard stall until a compaction retires some.
      MaybeScheduleBackground();
      QueueStallBegin(WriteStallInfo::Cause::kL0Stop);
      const uint64_t start = NowMicros();
      bg_cv_.wait(lock);
      const uint64_t stalled = NowMicros() - start;
      RecordStall(stalled);
      QueueStallEnd(WriteStallInfo::Cause::kL0Stop, stalled);
      continue;
    }

    // Freeze the full memtable and switch to a fresh one + fresh WAL. The
    // old WAL stays on disk until the flush completes, so a crash in
    // between replays both.
    //
    // Sync the outgoing WAL before retiring it: a crash would otherwise
    // truncate its un-synced tail while records in the successor WAL
    // survive, so recovery would drop writes from the *middle* of the
    // acknowledged sequence instead of a suffix (prefix-consistent
    // recovery). One fsync per memtable rotation is noise next to the
    // flush itself.
    Status s = wal_->file()->Sync();
    if (!s.ok()) return s;
    const uint64_t new_wal = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> wal_file;
    s = env_->NewWritableFile(WalFileName(name_, new_wal), &wal_file);
    if (!s.ok()) return s;
    wal_->Close();
    wal_ = std::make_unique<LogWriter>(std::move(wal_file));
    imm_wal_number_ = wal_number_;
    wal_number_ = new_wal;
    versions_->SetWalNumber(new_wal);
    imm_ = mem_;
    mem_ = std::make_shared<MemTable>(icmp_);
    if (HasListeners()) {
      MemtableSealInfo info;
      info.db_name = name_;
      info.memtable_bytes = imm_->ApproximateMemoryUsage();
      info.entries = imm_->num_entries();
      info.wal_number = imm_wal_number_;
      QueueEvent([info](EventListener* l) { l->OnMemtableSealed(info); });
    }
    MaybeScheduleBackground();
    // Loop: the fresh memtable has room.
  }
}

Status DB::RunExclusive(const std::function<Status()>& fn) {
  Writer w(nullptr, false);
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (&w != writers_.front()) {
    w.cv.wait(lock);
  }
  // Drain in-flight background work; exclusive_waiters_ stops the worker
  // from rescheduling itself so this cannot starve.
  exclusive_waiters_++;
  while (bg_active_) bg_cv_.wait(lock);
  exclusive_waiters_--;

  Status s = bg_error_.ok() ? fn() : bg_error_;

  writers_.pop_front();
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  MaybeScheduleBackground();
  return s;
}

DB::ReadSnapshot DB::AcquireReadSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadSnapshot{mem_, imm_, versions_->current(),
                      versions_->last_sequence()};
}

Status DB::Get(const ReadOptions& ro, const Slice& key, std::string* value) {
  if (metrics_ == nullptr) {
    ReadSnapshot snap = AcquireReadSnapshot();
    LookupKey lkey(key, snap.sequence);
    Status s;
    if (snap.mem->Get(lkey, value, &s)) {
      return s;
    }
    if (snap.imm != nullptr && snap.imm->Get(lkey, value, &s)) {
      return s;
    }
    // Version::Get is const w.r.t. tree shape; needs non-const for table
    // reads.
    return const_cast<Version*>(snap.version.get())->Get(ro, lkey, value);
  }

  Stopwatch watch;
  ReadSnapshot snap = AcquireReadSnapshot();
  LookupKey lkey(key, snap.sequence);
  Status s;
  GetPerf perf;
  const bool in_mem =
      snap.mem->Get(lkey, value, &s) ||
      (snap.imm != nullptr && snap.imm->Get(lkey, value, &s));
  if (!in_mem) {
    s = const_cast<Version*>(snap.version.get())->Get(ro, lkey, value, &perf);
    if (perf.bloom_checks != 0) metrics_->bloom_checks->Inc(perf.bloom_checks);
    if (perf.bloom_useful != 0) metrics_->bloom_useful->Inc(perf.bloom_useful);
    for (int l = 0; l < GetPerf::kMaxLevels; l++) {
      if (perf.reads_per_level[l] != 0) {
        metrics_->sstable_reads_per_level[l]->Inc(perf.reads_per_level[l]);
      }
    }
  }
  metrics_->get_micros->RecordMicros(watch.ElapsedMicros());
  return s;
}

Iterator* DB::NewIterator(const ReadOptions& ro) {
  ReadSnapshot snap = AcquireReadSnapshot();
  std::vector<Iterator*> children;
  children.push_back(snap.mem->NewIterator());
  if (snap.imm != nullptr) {
    children.push_back(snap.imm->NewIterator());
  }
  const_cast<Version*>(snap.version.get())->AddIterators(ro, &children);
  Iterator* internal = NewMergingIterator(&icmp_, std::move(children));
  return new DBIter(snap.mem, snap.imm, snap.version, snap.sequence, internal);
}

namespace {

// Adapter giving the vector-returning Scan the streaming code path.
class CollectPairsSink : public RowSink {
 public:
  explicit CollectPairsSink(
      std::vector<std::pair<std::string, std::string>>* out)
      : out_(out) {}

  bool Accept(const Slice& key, const Slice& value) override {
    out_->emplace_back(key.ToString(), value.ToString());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>>* out_;
};

}  // namespace

Status DB::Scan(const ReadOptions& ro, const Slice& start, const Slice& end,
                const ScanFilter* filter, size_t limit,
                std::vector<std::pair<std::string, std::string>>* out,
                ScanStats* stats) {
  CollectPairsSink sink(out);
  return Scan(ro, start, end, filter, limit, &sink, stats);
}

Status DB::Scan(const ReadOptions& ro, const Slice& start, const Slice& end,
                const ScanFilter* filter, size_t limit, RowSink* sink,
                ScanStats* stats) {
  Stopwatch watch;  // read only when metrics are on
  std::unique_ptr<Iterator> iter(NewIterator(ro));
  ScanStats local;
  for (iter->Seek(start); iter->Valid(); iter->Next()) {
    if (!end.empty() && iter->key().compare(end) >= 0) break;
    local.scanned++;
    if (filter == nullptr || filter->Matches(iter->key(), iter->value())) {
      local.matched++;
      if (!sink->Accept(iter->key(), iter->value())) break;
      if (limit != 0 && local.matched >= limit) break;
    }
  }
  if (stats != nullptr) *stats += local;
  if (metrics_ != nullptr) {
    metrics_->scan_micros->RecordMicros(watch.ElapsedMicros());
    metrics_->scan_rows->Inc(local.scanned);
  }
  return iter->status();
}

Status DB::MultiScan(const ReadOptions& ro,
                     const std::vector<ScanWindow>& windows,
                     const ScanFilter* filter, size_t limit, RowSink* sink,
                     ScanStats* stats, MultiScanPerf* perf) {
  Stopwatch watch;  // read only when metrics are on
  ReadOptions opts = ro;
  if (opts.readahead_bytes == 0) {
    opts.readahead_bytes = kMultiScanReadaheadBytes;
  }
  MultiScanPerf local_perf;
  opts.perf = &local_perf;
  std::unique_ptr<Iterator> iter(NewIterator(opts));
  ScanStats local;
  bool positioned = false;       // iter has been placed by some window
  Slice prev_end;                // previous window's end key
  bool prev_end_bounded = false; // previous window had a non-empty end
  for (const ScanWindow& w : windows) {
    local_perf.windows++;
    if (positioned) local_perf.iterator_reuse++;
    // Seek elision: with sorted non-overlapping windows the cursor sits at
    // the first key >= the previous window's end. If this window starts at
    // or past that point and the cursor is already inside it, no Seek is
    // needed; an exhausted cursor proves the window empty outright. A
    // previous window that ran to infinity (empty end) never qualifies.
    const bool in_order = positioned && prev_end_bounded &&
                          w.start.compare(prev_end) >= 0;
    if (in_order && (!iter->Valid() || iter->key().compare(w.start) >= 0)) {
      local_perf.seeks_saved++;
    } else {
      iter->Seek(w.start);
      local_perf.seeks_issued++;
    }
    positioned = true;
    prev_end = w.end;
    prev_end_bounded = !w.end.empty();
    size_t window_matched = 0;
    bool stop = false;
    for (; iter->Valid(); iter->Next()) {
      if (!w.end.empty() && iter->key().compare(w.end) >= 0) break;
      local.scanned++;
      if (filter == nullptr || filter->Matches(iter->key(), iter->value())) {
        local.matched++;
        window_matched++;
        if (!sink->Accept(iter->key(), iter->value())) {
          stop = true;
          break;
        }
        if (limit != 0 && window_matched >= limit) break;
      }
    }
    if (stop || !iter->status().ok()) break;
  }
  if (stats != nullptr) *stats += local;
  if (perf != nullptr) *perf += local_perf;
  if (metrics_ != nullptr) {
    metrics_->multiscan_micros->RecordMicros(watch.ElapsedMicros());
    metrics_->scan_rows->Inc(local.scanned);
    metrics_->multiscan_windows->Inc(local_perf.windows);
    metrics_->multiscan_seeks_saved->Inc(local_perf.seeks_saved);
    metrics_->multiscan_block_reuse->Inc(local_perf.block_reuse);
    metrics_->multiscan_blocks_readahead->Inc(local_perf.blocks_readahead);
  }
  return iter->status();
}

Status DB::Flush() {
  Status s = RunExclusive([this]() {
    if (imm_ == nullptr && mem_->num_entries() == 0) return Status::OK();
    Status fs;
    if (imm_ != nullptr) fs = FlushImmutable(nullptr);
    if (fs.ok()) fs = FlushActiveLocked();
    if (fs.ok()) fs = CompactLoopLocked();
    return fs;
  });
  DrainEvents();
  return s;
}

Status DB::CompactAll() {
  Status result = RunExclusive([this]() {
    Status s;
    if (imm_ != nullptr) s = FlushImmutable(nullptr);
    if (s.ok()) s = FlushActiveLocked();
    if (!s.ok()) return s;
    for (int level = 0; level < kNumLevels - 1; level++) {
      VersionPtr current = versions_->current();
      CompactionJob job;
      job.level = level;
      job.inputs_n = current->LevelFiles(level);
      if (job.inputs_n.empty()) continue;
      Slice smallest = job.inputs_n[0]->smallest.user_key();
      Slice largest = job.inputs_n[0]->largest.user_key();
      for (const auto& f : job.inputs_n) {
        if (f->smallest.user_key().compare(smallest) < 0) {
          smallest = f->smallest.user_key();
        }
        if (f->largest.user_key().compare(largest) > 0) {
          largest = f->largest.user_key();
        }
      }
      for (const auto& f : current->LevelFiles(level + 1)) {
        if (f->largest.user_key().compare(smallest) >= 0 &&
            f->smallest.user_key().compare(largest) <= 0) {
          job.inputs_np1.push_back(f);
        }
      }
      s = RunCompaction(job, nullptr);
      if (!s.ok()) return s;
    }
    return Status::OK();
  });
  DrainEvents();
  return result;
}

Status DB::GetApproximateMedianKey(const Slice& start, const Slice& end,
                                   std::string* median) {
  ReadSnapshot snap = AcquireReadSnapshot();
  std::vector<std::string> samples;
  for (int level = 0; level < snap.version->num_levels(); level++) {
    for (const FileMetaPtr& f : snap.version->LevelFiles(level)) {
      if (!end.empty() && f->smallest.user_key().compare(end) >= 0) continue;
      if (f->largest.user_key().compare(start) < 0) continue;
      // Separator keys sample the file's interior; the file's own largest
      // key anchors single-block tables that contribute no separator.
      f->table->AppendIndexUserKeys(start, end, &samples);
      const Slice largest = f->largest.user_key();
      if (largest.compare(start) > 0 &&
          (end.empty() || largest.compare(end) < 0)) {
        samples.push_back(largest.ToString());
      }
    }
  }
  if (samples.size() < 2) {
    return Status::NotFound("not enough keys in range to estimate a median");
  }
  std::sort(samples.begin(), samples.end());
  samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
  if (samples.size() < 2) {
    return Status::NotFound("range holds a single sampled key");
  }
  // Never return the first sample: a split at the range's smallest sampled
  // key would leave an empty lower half.
  *median = samples[std::max<size_t>(1, samples.size() / 2)];
  return Status::OK();
}

Status DB::IngestExternalFile(const IngestOptions& io,
                              const std::string& file_path) {
  // Validate the external file and learn its key range before taking the
  // writer slot: open it as a table and walk every entry. The walk doubles
  // as a structural check (sorted keys, sequence 0, valid blocks) — a bad
  // file is rejected without ever touching DB state.
  uint64_t ext_size = 0;
  Status s = env_->GetFileSize(file_path, &ext_size);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> ext_raf;
  s = env_->NewRandomAccessFile(file_path, &ext_raf);
  if (!s.ok()) return s;
  std::unique_ptr<Table> ext_table;
  s = Table::Open(/*table_id=*/0, std::move(ext_raf), ext_size,
                  /*cache=*/nullptr, &ext_table);
  if (!s.ok()) return s;

  std::string smallest_user_key, largest_user_key;
  uint64_t num_entries = 0;
  {
    ReadOptions ro;
    ro.fill_cache = false;
    std::unique_ptr<Iterator> it(ext_table->NewIterator(ro));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(it->key(), &parsed) ||
          parsed.sequence != 0 || parsed.type != kTypeValue) {
        return Status::InvalidArgument(
            "external file was not built by SstFileWriter");
      }
      if (num_entries == 0) {
        smallest_user_key = parsed.user_key.ToString();
      }
      largest_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      num_entries++;
    }
    if (!it->status().ok()) return it->status();
  }
  ext_table.reset();
  if (num_entries == 0) {
    return Status::InvalidArgument("external file is empty");
  }

  s = RunExclusive([&]() {
    // Buffered writes may cover the ingest range with *newer* sequence
    // numbers; flushing them first makes every live key visible to the
    // overlap check below.
    Status es;
    if (imm_ != nullptr) es = FlushImmutable(nullptr);
    if (es.ok() && mem_->num_entries() > 0) es = FlushActiveLocked();
    if (!es.ok()) return es;

    VersionPtr current = versions_->current();
    for (int level = 0; level < current->num_levels(); level++) {
      if (current->OverlapsRange(level, Slice(smallest_user_key),
                                 Slice(largest_user_key))) {
        return Status::Overlap(
            "external file overlaps live key range [" + smallest_user_key +
            ", " + largest_user_key + "] at level " + std::to_string(level));
      }
    }
    // Sequence-0 rows are older than everything: the deepest level is the
    // only placement that keeps LSM age ordering without renumbering.
    const int target_level = current->num_levels() - 1;

    auto meta = std::make_shared<FileMetaData>();
    meta->number = versions_->NewFileNumber();
    pending_outputs_.insert(meta->number);
    const std::string table_name = TableFileName(name_, meta->number);

    if (io.move_file) {
      es = env_->RenameFile(file_path, table_name);
    } else {
      // Copy + sync: the installed file must be durable before the
      // MANIFEST references it (prefix-consistency, as in flushes).
      std::unique_ptr<SequentialFile> src;
      es = env_->NewSequentialFile(file_path, &src);
      std::unique_ptr<WritableFile> dst;
      if (es.ok()) es = env_->NewWritableFile(table_name, &dst);
      if (es.ok()) {
        constexpr size_t kCopyChunk = 64 * 1024;
        std::string scratch(kCopyChunk, '\0');
        uint64_t copied = 0;
        while (es.ok() && copied < ext_size) {
          Slice chunk;
          es = src->Read(kCopyChunk, &chunk, scratch.data());
          if (es.ok() && chunk.empty()) {
            es = Status::IOError("external file shrank during ingest");
          }
          if (es.ok()) {
            es = dst->Append(chunk);
            copied += chunk.size();
          }
        }
        if (es.ok()) es = env_->SyncFile(dst.get());
        if (es.ok()) es = dst->Close();
      }
    }

    if (es.ok()) {
      meta->file_size = ext_size;
      meta->smallest.Set(Slice(smallest_user_key), 0, kTypeValue);
      meta->largest.Set(Slice(largest_user_key), 0, kTypeValue);
      es = versions_->OpenTable(meta.get());
    }
    if (es.ok()) {
      es = versions_->InstallVersion(target_level, {meta}, {}, -1);
    }
    pending_outputs_.erase(meta->number);
    if (!es.ok()) {
      env_->RemoveFile(table_name);
      return es;
    }
    files_ingested_++;
    rows_ingested_ += num_entries;
    if (metrics_ != nullptr) {
      metrics_->ingest_files->Inc();
      metrics_->ingest_rows->Inc(num_entries);
    }
    if (HasListeners()) {
      IngestJobInfo info;
      info.db_name = name_;
      info.file_path = file_path;
      info.file_size = ext_size;
      info.entries = num_entries;
      info.level = target_level;
      QueueEvent([info](EventListener* l) { l->OnIngestCompleted(info); });
    }
    return Status::OK();
  });
  DrainEvents();  // ingest event + any flush queued while making room
  return s;
}

Status DB::Resume() {
  // Same exclusive dance as RunExclusive, but inline: RunExclusive itself
  // short-circuits on a sticky bg_error, which is exactly what Resume needs
  // to clear.
  Writer w(nullptr, false);
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (&w != writers_.front()) {
    w.cv.wait(lock);
  }
  exclusive_waiters_++;
  while (bg_active_) bg_cv_.wait(lock);
  exclusive_waiters_--;

  Status s;
  if (!bg_error_.ok()) {
    if (bg_error_.IsCorruption()) {
      // Not transient: retrying the flush cannot repair bad on-disk data.
      s = bg_error_;
    } else {
      bg_error_ = Status::OK();
      if (imm_ != nullptr) s = FlushImmutable(nullptr);
      if (s.ok()) s = CompactLoopLocked();
      if (s.ok()) {
        resume_count_++;
        if (metrics_ != nullptr) metrics_->recovery_resumes->Inc();
      } else {
        bg_error_ = s;  // still failing: stay bricked
        if (HasListeners()) {
          BackgroundErrorInfo info;
          info.db_name = name_;
          info.status = s;
          QueueEvent([info](EventListener* l) { l->OnBackgroundError(info); });
        }
      }
    }
  }

  writers_.pop_front();
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  MaybeScheduleBackground();
  lock.unlock();
  DrainEvents();
  return s;
}

Status DB::WriteLevel0Table(const std::shared_ptr<MemTable>& mem,
                            std::unique_lock<std::mutex>* lock) {
  auto meta = std::make_shared<FileMetaData>();
  meta->number = versions_->NewFileNumber();
  pending_outputs_.insert(meta->number);

  Stopwatch watch;
  if (lock != nullptr) lock->unlock();
  Status s = BuildTableFromMem(env_, name_, mem.get(), meta.get());
  if (s.ok()) s = versions_->OpenTable(meta.get());
  if (lock != nullptr) lock->lock();

  pending_outputs_.erase(meta->number);
  if (!s.ok()) {
    env_->RemoveFile(TableFileName(name_, meta->number));
    return s;
  }
  flush_count_++;
  if (metrics_ != nullptr) {
    metrics_->flushes->Inc();
    metrics_->flush_micros->RecordMicros(watch.ElapsedMicros());
  }
  const uint64_t file_number = meta->number;
  const uint64_t file_size = meta->file_size;
  s = versions_->InstallVersion(0, {std::move(meta)}, {}, -1);
  if (s.ok() && HasListeners()) {
    FlushJobInfo info;
    info.db_name = name_;
    info.file_number = file_number;
    info.file_size = file_size;
    info.entries = mem->num_entries();
    info.micros = static_cast<uint64_t>(watch.ElapsedMicros());
    QueueEvent([info](EventListener* l) { l->OnFlushCompleted(info); });
  }
  return s;
}

Status DB::FlushImmutable(std::unique_lock<std::mutex>* lock) {
  assert(imm_ != nullptr);
  std::shared_ptr<MemTable> imm = imm_;
  Status s = WriteLevel0Table(imm, lock);
  if (!s.ok()) return s;
  imm_ = nullptr;
  const uint64_t old_wal = imm_wal_number_;
  imm_wal_number_ = 0;
  // InstallVersion persisted the MANIFEST, so the frozen WAL is droppable.
  if (old_wal != 0) env_->RemoveFile(WalFileName(name_, old_wal));
  RemoveObsoleteFilesLocked(lock);
  return Status::OK();
}

Status DB::FlushActiveLocked() {
  if (mem_->num_entries() == 0) return Status::OK();
  Status s = WriteLevel0Table(mem_, nullptr);
  if (!s.ok()) return s;
  if (HasListeners()) {
    // Explicit flushes retire the active memtable without an imm_ handoff;
    // still a seal for listeners — every memtable retirement emits one.
    MemtableSealInfo info;
    info.db_name = name_;
    info.memtable_bytes = mem_->ApproximateMemoryUsage();
    info.entries = mem_->num_entries();
    info.wal_number = wal_number_;
    QueueEvent([info](EventListener* l) { l->OnMemtableSealed(info); });
  }
  mem_ = std::make_shared<MemTable>(icmp_);

  // Rotate the WAL: flushed entries are durable in the SSTable.
  const uint64_t old_wal = wal_number_;
  wal_number_ = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> wal_file;
  s = env_->NewWritableFile(WalFileName(name_, wal_number_), &wal_file);
  if (!s.ok()) return s;
  wal_->Close();
  wal_ = std::make_unique<LogWriter>(std::move(wal_file));
  versions_->SetWalNumber(wal_number_);
  s = versions_->WriteSnapshot();
  if (!s.ok()) return s;
  env_->RemoveFile(WalFileName(name_, old_wal));
  return Status::OK();
}

uint64_t DB::MaxBytesForLevel(int level) const {
  uint64_t result = options_.base_level_bytes;
  for (int i = 1; i < level; i++) result *= 10;
  return result;
}

bool DB::PickCompaction(const VersionPtr& current, CompactionJob* job) const {
  // L0 pressure first.
  if (current->NumFiles(0) >= options_.l0_compaction_trigger) {
    job->level = 0;
    job->inputs_n = current->LevelFiles(0);
    // Compute the union user-key range of L0.
    Slice smallest = job->inputs_n[0]->smallest.user_key();
    Slice largest = job->inputs_n[0]->largest.user_key();
    for (const auto& f : job->inputs_n) {
      if (f->smallest.user_key().compare(smallest) < 0) {
        smallest = f->smallest.user_key();
      }
      if (f->largest.user_key().compare(largest) > 0) {
        largest = f->largest.user_key();
      }
    }
    for (const auto& f : current->LevelFiles(1)) {
      if (f->largest.user_key().compare(smallest) >= 0 &&
          f->smallest.user_key().compare(largest) <= 0) {
        job->inputs_np1.push_back(f);
      }
    }
    return true;
  }

  // Size pressure on deeper levels.
  int level = -1;
  for (int l = 1; l < kNumLevels - 1; l++) {
    if (current->NumLevelBytes(l) > MaxBytesForLevel(l)) {
      level = l;
      break;
    }
  }
  if (level < 0) return false;

  const auto& files = current->LevelFiles(level);
  job->level = level;
  job->inputs_n = {files[0]};
  for (const auto& f : current->LevelFiles(level + 1)) {
    if (f->largest.user_key().compare(files[0]->smallest.user_key()) >= 0 &&
        f->smallest.user_key().compare(files[0]->largest.user_key()) <= 0) {
      job->inputs_np1.push_back(f);
    }
  }
  return true;
}

Status DB::RunCompaction(const CompactionJob& job,
                         std::unique_lock<std::mutex>* lock) {
  const int level = job.level;
  const int output_level = level + 1;
  VersionPtr current = versions_->current();

  std::vector<uint64_t> removed;
  uint64_t bytes_read = 0;
  for (const auto& f : job.inputs_n) {
    removed.push_back(f->number);
    bytes_read += f->file_size;
  }
  for (const auto& f : job.inputs_np1) {
    removed.push_back(f->number);
    bytes_read += f->file_size;
  }

  // Trivial move: a single deeper-level input with nothing to merge into
  // simply changes level (no rewrite, as in RocksDB's trivial move).
  // Disabled while a compaction filter is set: retention only applies when
  // entries flow through a rewriting merge, and a moved file could
  // otherwise carry expired rows to the bottom level forever.
  if (job.inputs_n.size() == 1 && job.inputs_np1.empty() && level > 0 &&
      (options_.compaction_filter == nullptr ||
       !options_.compaction_filter->CouldDropAnything())) {
    return versions_->InstallVersion(output_level, {job.inputs_n[0]}, removed,
                                     level);
  }

  // The merge itself needs no DB state: inputs are pinned by the captured
  // FileMetaPtrs and `current`; output numbers come from the atomic
  // counter. Release the mutex so readers and writers proceed.
  Stopwatch watch;
  if (lock != nullptr) lock->unlock();

  ReadOptions ro;
  ro.fill_cache = false;
  std::vector<Iterator*> children;
  for (const auto& f : job.inputs_n) {
    children.push_back(f->table->NewIterator(ro));
  }
  for (const auto& f : job.inputs_np1) {
    children.push_back(f->table->NewIterator(ro));
  }
  std::unique_ptr<Iterator> iter(
      NewMergingIterator(&icmp_, std::move(children)));

  std::vector<FileMetaPtr> outputs;
  std::vector<uint64_t> output_numbers;
  std::unique_ptr<WritableFile> out_file;
  std::unique_ptr<TableBuilder> builder;
  FileMetaPtr out_meta;
  Status s;

  auto register_output = [&](uint64_t number) {
    if (lock != nullptr) {
      lock->lock();
      pending_outputs_.insert(number);
      lock->unlock();
    } else {
      pending_outputs_.insert(number);
    }
    output_numbers.push_back(number);
  };

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    Status fs = builder->Finish();
    if (!fs.ok()) return fs;
    out_meta->file_size = builder->FileSize();
    builder.reset();
    // Durable before the MANIFEST references it (see BuildTableFromMem).
    fs = out_file->Sync();
    if (!fs.ok()) return fs;
    fs = out_file->Close();
    out_file.reset();
    if (!fs.ok()) return fs;
    fs = versions_->OpenTable(out_meta.get());
    if (!fs.ok()) return fs;
    outputs.push_back(std::move(out_meta));
    return Status::OK();
  };

  std::string current_user_key;
  bool has_current_user_key = false;
  uint64_t filter_dropped = 0;
  uint64_t filter_tombstoned = 0;

  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      s = Status::Corruption("bad internal key during compaction");
      break;
    }
    if (has_current_user_key &&
        parsed.user_key.compare(Slice(current_user_key)) == 0) {
      continue;  // older version of a key we already emitted/dropped
    }
    current_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
    has_current_user_key = true;

    if (parsed.type == kTypeDeletion &&
        current->IsBottommostForKey(output_level, parsed.user_key)) {
      continue;  // tombstone no longer shadows anything
    }

    // Retention: the filter sees only the newest surviving version of each
    // user key (exactly what readers would see), never tombstones.
    Slice emit_key = iter->key();
    Slice emit_value = iter->value();
    std::string rewritten_key;
    if (options_.compaction_filter != nullptr && parsed.type == kTypeValue &&
        options_.compaction_filter->ShouldDrop(output_level, parsed.user_key,
                                               emit_value)) {
      if (current->IsBottommostForKey(output_level, parsed.user_key)) {
        filter_dropped++;
        continue;  // expired, and no deeper level can resurrect it
      }
      // Expired, but an older version may live deeper: rewrite as a
      // deletion tombstone at the same sequence so it stays shadowed
      // until the deeper copy compacts away too.
      filter_tombstoned++;
      AppendInternalKey(&rewritten_key, parsed.user_key, parsed.sequence,
                        kTypeDeletion);
      emit_key = Slice(rewritten_key);
      emit_value = Slice();
    }

    if (builder == nullptr) {
      out_meta = std::make_shared<FileMetaData>();
      out_meta->number = versions_->NewFileNumber();
      register_output(out_meta->number);
      s = env_->NewWritableFile(TableFileName(name_, out_meta->number),
                                &out_file);
      if (!s.ok()) break;
      builder = std::make_unique<TableBuilder>(out_file.get());
      out_meta->smallest.DecodeFrom(emit_key);
    }
    builder->Add(emit_key, emit_value);
    out_meta->largest.DecodeFrom(emit_key);

    if (builder->FileSize() >= options_.max_file_bytes) {
      s = finish_output();
    }
  }
  if (s.ok()) s = iter->status();
  if (s.ok()) s = finish_output();

  if (lock != nullptr) lock->lock();
  for (uint64_t number : output_numbers) pending_outputs_.erase(number);
  if (!s.ok()) {
    for (uint64_t number : output_numbers) {
      env_->RemoveFile(TableFileName(name_, number));
    }
    return s;
  }

  uint64_t bytes_written = 0;
  for (const auto& f : outputs) bytes_written += f->file_size;
  compaction_count_++;
  compaction_bytes_read_ += bytes_read;
  compaction_bytes_written_ += bytes_written;
  compaction_filter_dropped_ += filter_dropped;
  compaction_filter_tombstoned_ += filter_tombstoned;
  if (metrics_ != nullptr) {
    metrics_->compactions->Inc();
    metrics_->compaction_micros->RecordMicros(watch.ElapsedMicros());
    metrics_->compaction_bytes_read->Inc(bytes_read);
    metrics_->compaction_bytes_written->Inc(bytes_written);
    if (filter_dropped > 0) {
      metrics_->compaction_filter_dropped->Inc(filter_dropped);
    }
    if (filter_tombstoned > 0) {
      metrics_->compaction_filter_tombstoned->Inc(filter_tombstoned);
    }
  }

  const uint64_t output_files = outputs.size();
  s = versions_->InstallVersion(output_level, std::move(outputs), removed,
                                level);
  if (!s.ok()) return s;
  if (HasListeners()) {
    CompactionJobInfo info;
    info.db_name = name_;
    info.level = level;
    info.output_level = output_level;
    info.input_files = job.inputs_n.size() + job.inputs_np1.size();
    info.output_files = output_files;
    info.bytes_read = bytes_read;
    info.bytes_written = bytes_written;
    info.filter_dropped = filter_dropped;
    info.filter_tombstoned = filter_tombstoned;
    info.micros = static_cast<uint64_t>(watch.ElapsedMicros());
    QueueEvent([info](EventListener* l) { l->OnCompactionCompleted(info); });
  }
  RemoveObsoleteFilesLocked(lock);
  return Status::OK();
}

Status DB::CompactLoopLocked() {
  for (int round = 0; round < 16; round++) {
    CompactionJob job;
    if (!PickCompaction(versions_->current(), &job)) return Status::OK();
    Status s = RunCompaction(job, nullptr);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

bool DB::HasBackgroundWork() const {
  if (imm_ != nullptr) return true;
  CompactionJob job;
  return PickCompaction(versions_->current(), &job);
}

void DB::MaybeScheduleBackground() {
  if (bg_pool_ == nullptr) return;
  if (bg_active_ || shutting_down_ || exclusive_waiters_ > 0) return;
  if (!bg_error_.ok()) return;
  if (!HasBackgroundWork()) return;
  bg_active_ = true;
  bg_pool_->Submit([this] { BackgroundCall(); });
}

void DB::BackgroundCall() {
  std::unique_lock<std::mutex> lock(mu_);
  assert(bg_active_);
  if (!shutting_down_ && bg_error_.ok()) {
    Status s;
    if (imm_ != nullptr) {
      s = FlushImmutable(&lock);
    } else {
      CompactionJob job;
      if (PickCompaction(versions_->current(), &job)) {
        s = RunCompaction(job, &lock);
      }
    }
    if (!s.ok()) {
      bg_error_ = s;
      if (HasListeners()) {
        BackgroundErrorInfo info;
        info.db_name = name_;
        info.status = s;
        QueueEvent([info](EventListener* l) { l->OnBackgroundError(info); });
      }
    }
  }
  // Deliver this run's flush/compaction/error events while bg_active_ still
  // holds off the destructor, which frees the DB once it reads false.
  lock.unlock();
  DrainEvents();
  lock.lock();
  // Run one unit per call, then resubmit while work remains so DBs sharing
  // a pool interleave fairly; yield to exclusive (Flush/CompactAll/close)
  // waiters, who finish the work inline.
  if (!shutting_down_ && bg_error_.ok() && exclusive_waiters_ == 0 &&
      HasBackgroundWork()) {
    bg_pool_->Submit([this] { BackgroundCall(); });
  } else {
    bg_active_ = false;
  }
  bg_cv_.notify_all();
}

void DB::QueueEvent(std::function<void(EventListener*)> fn) {
  pending_events_.push_back(std::move(fn));
  events_pending_.store(true, std::memory_order_release);
}

void DB::DrainEvents() {
  if (!HasListeners()) return;
  // Common case (nothing queued) must stay off the DB mutex: Write calls
  // this once per operation.
  if (!events_pending_.load(std::memory_order_acquire)) return;
  std::vector<std::function<void(EventListener*)>> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_events_.empty()) return;
    events.swap(pending_events_);
    events_pending_.store(false, std::memory_order_release);
  }
  for (const auto& fn : events) {
    for (EventListener* listener : options_.listeners) fn(listener);
  }
}

void DB::QueueStallBegin(WriteStallInfo::Cause cause) {
  if (!HasListeners()) return;
  WriteStallInfo info;
  info.db_name = name_;
  info.cause = cause;
  QueueEvent([info](EventListener* l) { l->OnWriteStallBegin(info); });
}

void DB::QueueStallEnd(WriteStallInfo::Cause cause, uint64_t micros) {
  if (!HasListeners()) return;
  WriteStallInfo info;
  info.db_name = name_;
  info.cause = cause;
  info.micros = micros;
  QueueEvent([info](EventListener* l) { l->OnWriteStallEnd(info); });
}

void DB::RemoveObsoleteFilesLocked(std::unique_lock<std::mutex>* lock) {
  // Deciding what is obsolete needs mu_ (live set, pending outputs, WAL
  // numbers); the directory scan and unlinks are pure I/O and run with the
  // mutex released on the background path so writers are not blocked.
  std::vector<uint64_t> live = versions_->LiveFiles();
  const std::set<uint64_t> pending = pending_outputs_;
  const uint64_t active_wal = wal_number_;
  const uint64_t frozen_wal = imm_wal_number_;
  // Files numbered >= horizon were created after this snapshot (e.g. a WAL
  // rotated by a concurrent writer once the mutex is released) and must
  // not be judged by the stale keep-set.
  const uint64_t horizon = versions_->PeekNextFileNumber();

  if (lock != nullptr) lock->unlock();
  std::vector<std::string> children;
  if (env_->GetChildren(name_, &children).ok()) {
    for (const auto& child : children) {
      uint64_t number;
      std::string suffix;
      if (!ParseFileName(child, &number, &suffix)) continue;
      if (number >= horizon) continue;
      bool keep = true;
      if (suffix == "sst") {
        keep = pending.count(number) > 0 ||
               std::find(live.begin(), live.end(), number) != live.end();
      } else if (suffix == "wal") {
        keep = (number == active_wal) ||
               (frozen_wal != 0 && number == frozen_wal);
      }
      if (!keep) {
        env_->RemoveFile(name_ + "/" + child);
      }
    }
  }
  if (lock != nullptr) lock->lock();
}

DB::Stats DB::GetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  VersionPtr current = versions_->current();
  for (int l = 0; l < current->num_levels(); l++) {
    stats.files_per_level.push_back(current->NumFiles(l));
    stats.bytes_per_level.push_back(current->NumLevelBytes(l));
  }
  stats.memtable_bytes = mem_->ApproximateMemoryUsage();
  stats.imm_memtable_bytes =
      imm_ != nullptr ? imm_->ApproximateMemoryUsage() : 0;
  stats.block_cache_hits = block_cache_->hits();
  stats.block_cache_misses = block_cache_->misses();
  stats.flush_count = flush_count_;
  stats.compaction_count = compaction_count_;
  stats.compaction_bytes_read = compaction_bytes_read_;
  stats.compaction_bytes_written = compaction_bytes_written_;
  stats.stall_count = stall_count_;
  stats.stall_micros = stall_micros_;
  stats.wal_syncs = wal_syncs_;
  stats.wal_records_recovered = wal_records_recovered_;
  stats.wal_bytes_recovered = wal_bytes_recovered_;
  stats.wal_bytes_dropped = wal_bytes_dropped_;
  stats.wal_torn_tails = wal_torn_tails_;
  stats.resume_count = resume_count_;
  stats.compaction_filter_dropped = compaction_filter_dropped_;
  stats.compaction_filter_tombstoned = compaction_filter_tombstoned_;
  stats.files_ingested = files_ingested_;
  stats.rows_ingested = rows_ingested_;
  return stats;
}

Status DB::VerifyIntegrity(IntegrityReport* report) {
  // A consistent snapshot is enough: files are immutable once installed and
  // the shared_ptrs keep them alive even if a concurrent compaction drops
  // them from the tree.
  ReadSnapshot snap = AcquireReadSnapshot();
  IntegrityReport local;
  IntegrityReport* rep = report != nullptr ? report : &local;
  *rep = IntegrityReport{};

  Status first_error;
  for (int level = 0; level < snap.version->num_levels(); level++) {
    for (const auto& f : snap.version->LevelFiles(level)) {
      IntegrityReport::FileResult result;
      result.level = level;
      result.number = f->number;
      result.file_size = f->file_size;
      if (f->table != nullptr) {
        result.status = f->table->VerifyChecksums(&result.blocks);
      } else {
        result.status = Status::Corruption("table not open");
      }
      rep->files_checked++;
      rep->blocks_checked += result.blocks;
      if (!result.status.ok()) {
        rep->files_corrupt++;
        if (first_error.ok()) first_error = result.status;
      }
      rep->files.push_back(std::move(result));
    }
  }
  return first_error;
}

}  // namespace tman::kv
