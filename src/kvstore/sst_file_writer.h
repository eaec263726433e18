#ifndef TMAN_KVSTORE_SST_FILE_WRITER_H_
#define TMAN_KVSTORE_SST_FILE_WRITER_H_

#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "kvstore/env.h"
#include "kvstore/options.h"
#include "kvstore/table.h"

namespace tman::kv {

// Summary of a finished external SSTable, consumed by
// DB::IngestExternalFile for overlap checks and version installation.
struct ExternalSstFileInfo {
  std::string file_path;
  std::string smallest_user_key;
  std::string largest_user_key;
  uint64_t num_entries = 0;
  uint64_t file_size = 0;
};

// Builds a sorted SSTable outside any DB (offline backfill). Rows are added
// in strictly ascending user-key order and land at sequence number 0 — by
// LSM rules "older than every write the target DB has ever accepted" — so
// ingestion only has to check that the file's key range does not overlap
// live data (DB::IngestExternalFile enforces this). The file uses the same
// v2 block format as flushes and compactions.
//
// Usage:
//   SstFileWriter writer(options);
//   writer.Open(path);
//   for (...) writer.Put(user_key, value);   // ascending user keys
//   writer.Finish(&info);                    // syncs before returning
class SstFileWriter {
 public:
  explicit SstFileWriter(const Options& options);
  ~SstFileWriter();

  SstFileWriter(const SstFileWriter&) = delete;
  SstFileWriter& operator=(const SstFileWriter&) = delete;

  // Creates (truncates) the output file.
  Status Open(const std::string& file_path);

  // Adds one row. User keys must be strictly ascending; duplicates or
  // out-of-order keys return InvalidArgument.
  Status Put(const Slice& user_key, const Slice& value);

  // Finishes the table, syncs it to stable storage and closes the file.
  // A writer with zero rows returns InvalidArgument (an empty SSTable
  // cannot be ingested). On success fills *info (may be nullptr).
  Status Finish(ExternalSstFileInfo* info);

  uint64_t num_entries() const { return num_entries_; }

 private:
  Env* env_;
  std::string file_path_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  std::string smallest_user_key_;
  std::string last_user_key_;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_SST_FILE_WRITER_H_
