#ifndef TMAN_KVSTORE_VERSION_H_
#define TMAN_KVSTORE_VERSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvstore/dbformat.h"
#include "kvstore/iterator.h"
#include "kvstore/options.h"
#include "kvstore/table.h"

namespace tman::kv {

// One on-disk SSTable plus its open reader. The reader (and file
// descriptor) stays open for the lifetime of the metadata object, so files
// can be unlinked while old versions still read them.
struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  InternalKey smallest;
  InternalKey largest;
  std::unique_ptr<Table> table;
};

using FileMetaPtr = std::shared_ptr<FileMetaData>;

// Number of levels in the tree (L0..L6). The MANIFEST records it, and
// recovery refuses an implausible count.
inline constexpr int kNumLevels = 7;

// Per-lookup read-path breakdown, filled by Version::Get when requested
// (allocation-free: fixed arrays, lives on the caller's stack). Levels
// deeper than kMaxLevels-1 fold into the last slot.
struct GetPerf {
  static constexpr int kMaxLevels = 8;
  uint32_t bloom_checks = 0;  // candidate files whose filter was consulted
  uint32_t bloom_useful = 0;  // files skipped entirely thanks to the filter
  uint32_t reads_per_level[kMaxLevels] = {};  // SSTable point reads by level
};

// An immutable snapshot of the LSM tree's file layout. Readers hold a
// shared_ptr<Version>; flush/compaction install a new Version.
class Version {
 public:
  Version() : files_(kNumLevels) {}

  const std::vector<FileMetaPtr>& LevelFiles(int level) const {
    return files_[level];
  }
  int num_levels() const { return static_cast<int>(files_.size()); }

  // Point lookup across levels (L0 newest-first, deeper levels by range).
  // When `perf` is non-null the bloom check is hoisted out of the table so
  // filter effectiveness and per-level read counts can be recorded.
  Status Get(const ReadOptions& ro, const LookupKey& key, std::string* value,
             GetPerf* perf = nullptr);

  // Appends iterators covering all files to *iters.
  void AddIterators(const ReadOptions& ro, std::vector<Iterator*>* iters);

  uint64_t NumLevelBytes(int level) const;
  int NumFiles(int level) const;

  // True if no file in levels deeper than `level` overlaps user_key
  // (tombstones can then be dropped during compaction at `level`).
  bool IsBottommostForKey(int level, const Slice& user_key) const;

  // True if any file at `level` overlaps the closed user-key range
  // [smallest, largest] (used by external-file ingestion placement).
  bool OverlapsRange(int level, const Slice& smallest_user_key,
                     const Slice& largest_user_key) const;

 private:
  friend class VersionSet;

  std::vector<std::vector<FileMetaPtr>> files_;
};

using VersionPtr = std::shared_ptr<const Version>;

// Owns the current Version and the MANIFEST. All mutations happen under the
// DB mutex; NewFileNumber alone is lock-free so background flush/compaction
// can number output files while the mutex is released.
class VersionSet {
 public:
  VersionSet(std::string dbname, Env* env, BlockCache* cache);

  // Loads the MANIFEST (if present) and opens all referenced tables.
  Status Recover();

  VersionPtr current() const { return current_; }

  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  // Next number that NewFileNumber would hand out; files numbered >= this
  // value did not exist when the call was made (numbers are monotonic).
  uint64_t PeekNextFileNumber() const {
    return next_file_number_.load(std::memory_order_relaxed);
  }
  // Raises the next file number to at least `floor`. Recovery calls this
  // with 1 + the highest numbered file found on disk so that leftovers of a
  // crashed ingest/flush (numbered but never committed to the MANIFEST)
  // fall below the GC horizon and get collected instead of colliding with
  // future allocations.
  void EnsureFileNumberFloor(uint64_t floor) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur < floor &&
           !next_file_number_.compare_exchange_weak(
               cur, floor, std::memory_order_relaxed)) {
    }
  }
  uint64_t last_sequence() const { return last_sequence_; }
  void SetLastSequence(uint64_t s) { last_sequence_ = s; }
  uint64_t wal_number() const { return wal_number_; }
  void SetWalNumber(uint64_t n) { wal_number_ = n; }

  // Installs a new version that is `current` with `added` files placed at
  // `level` and `removed` file numbers dropped, then persists the MANIFEST.
  Status InstallVersion(int level, std::vector<FileMetaPtr> added,
                        const std::vector<uint64_t>& removed_numbers,
                        int removed_level_hint);

  // Persists the MANIFEST for the current state (sequence/WAL numbers).
  Status WriteSnapshot();

  // Opens the table for `meta` (fills meta->table).
  Status OpenTable(FileMetaData* meta);

  // Returns numbers of all table files referenced by the current version.
  std::vector<uint64_t> LiveFiles() const;

 private:
  std::string dbname_;
  Env* env_;
  BlockCache* cache_;
  VersionPtr current_;
  std::atomic<uint64_t> next_file_number_{1};
  uint64_t last_sequence_ = 0;
  uint64_t wal_number_ = 0;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_VERSION_H_
