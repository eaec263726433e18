#include "kvstore/sst_file_writer.h"

#include "kvstore/dbformat.h"

namespace tman::kv {

SstFileWriter::SstFileWriter(const Options& options)
    : env_(options.env != nullptr ? options.env : Env::Default()) {}

SstFileWriter::~SstFileWriter() = default;

Status SstFileWriter::Open(const std::string& file_path) {
  if (builder_ != nullptr) {
    return Status::InvalidArgument("SstFileWriter already open");
  }
  Status s = env_->NewWritableFile(file_path, &file_);
  if (!s.ok()) return s;
  file_path_ = file_path;
  builder_ = std::make_unique<TableBuilder>(file_.get());
  return Status::OK();
}

Status SstFileWriter::Put(const Slice& user_key, const Slice& value) {
  if (builder_ == nullptr || finished_) {
    return Status::InvalidArgument("SstFileWriter is not open");
  }
  if (num_entries_ > 0 && user_key.compare(Slice(last_user_key_)) <= 0) {
    return Status::InvalidArgument(
        "keys must be added in strictly ascending order");
  }
  if (num_entries_ == 0) smallest_user_key_ = user_key.ToString();
  last_user_key_ = user_key.ToString();

  // Sequence 0 marks every ingested row as older than any write the target
  // DB has assigned; ingestion refuses overlapping ranges, so the rows can
  // never shadow (or be shadowed by) live versions incorrectly.
  std::string internal_key;
  AppendInternalKey(&internal_key, user_key, 0, kTypeValue);
  builder_->Add(internal_key, value);
  num_entries_++;
  return builder_->status();
}

Status SstFileWriter::Finish(ExternalSstFileInfo* info) {
  if (builder_ == nullptr || finished_) {
    return Status::InvalidArgument("SstFileWriter is not open");
  }
  finished_ = true;
  if (num_entries_ == 0) {
    file_->Close();
    return Status::InvalidArgument("cannot finish an empty sst file");
  }
  Status s = builder_->Finish();
  // The file must be durable before any MANIFEST can reference it (same
  // prefix-consistency rule as flushes): sync, then close.
  if (s.ok()) s = env_->SyncFile(file_.get());
  if (s.ok()) s = file_->Close();
  if (!s.ok()) return s;
  if (info != nullptr) {
    info->file_path = file_path_;
    info->smallest_user_key = smallest_user_key_;
    info->largest_user_key = last_user_key_;
    info->num_entries = num_entries_;
    info->file_size = builder_->FileSize();
  }
  return Status::OK();
}

}  // namespace tman::kv
