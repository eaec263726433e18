#include "kvstore/table.h"

#include "kvstore/scan_filter.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/hash.h"

namespace tman::kv {

namespace {
constexpr uint64_t kTableMagicV2 = 0x7472616a6d616e32ULL;  // "trajman2"
constexpr size_t kFooterSize = 48;  // two handles (<=40) + magic
}  // namespace

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

bool BlockHandle::DecodeFrom(Slice* input) {
  return GetVarint64(input, &offset) && GetVarint64(input, &size);
}

// ---------------------------------------------------------------------------
// TableBuilder

TableBuilder::TableBuilder(WritableFile* file)
    : file_(file),
      data_block_(kBlockRestartInterval),
      index_block_(1),
      bloom_(kBloomBitsPerKey) {}

TableBuilder::~TableBuilder() = default;

void TableBuilder::Add(const Slice& key, const Slice& value) {
  if (!status_.ok() || closed_) return;

  if (pending_index_entry_) {
    // last_key_ is the final key of the completed block; it is a valid
    // separator because keys are added in sorted order.
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }

  filter_keys_.emplace_back(ExtractUserKey(key).ToString());

  last_key_.assign(key.data(), key.size());
  data_block_.Add(key, value);
  num_entries_++;

  if (data_block_.CurrentSizeEstimate() >= kBlockSize) {
    FlushDataBlock();
  }
}

void TableBuilder::FlushDataBlock() {
  if (data_block_.empty() || !status_.ok()) return;
  Slice contents = data_block_.Finish();
  status_ = WriteBlock(contents, &pending_handle_);
  data_block_.Reset();
  pending_index_entry_ = true;
}

Status TableBuilder::WriteBlock(const Slice& contents, BlockHandle* handle) {
  handle->offset = offset_;
  handle->size = contents.size();
  Status s = file_->Append(contents);
  if (s.ok()) {
    std::string trailer(1, '\0');  // type byte: a raw block
    PutFixed32(&trailer, Crc32c(contents.data(), contents.size()));
    s = file_->Append(trailer);
    if (s.ok()) offset_ += contents.size() + trailer.size();
  }
  return s;
}

Status TableBuilder::Finish() {
  if (closed_) return status_;
  closed_ = true;
  FlushDataBlock();
  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }
  if (!status_.ok()) return status_;

  // Filter block (raw bloom bytes, no restart structure, no trailer).
  BlockHandle filter_handle;
  filter_handle.offset = offset_;
  std::string filter_contents;
  std::vector<Slice> key_slices;
  key_slices.reserve(filter_keys_.size());
  for (const auto& k : filter_keys_) key_slices.emplace_back(k);
  bloom_.CreateFilter(key_slices, &filter_contents);
  filter_handle.size = filter_contents.size();
  status_ = file_->Append(filter_contents);
  if (!status_.ok()) return status_;
  offset_ += filter_contents.size();

  // Index block.
  BlockHandle index_handle;
  status_ = WriteBlock(index_block_.Finish(), &index_handle);
  if (!status_.ok()) return status_;

  // Footer.
  std::string footer;
  filter_handle.EncodeTo(&footer);
  index_handle.EncodeTo(&footer);
  footer.resize(kFooterSize - 8);
  PutFixed64(&footer, kTableMagicV2);
  status_ = file_->Append(footer);
  if (status_.ok()) offset_ += kFooterSize;
  if (status_.ok()) status_ = file_->Flush();
  return status_;
}

// ---------------------------------------------------------------------------
// Table

Status Table::Open(uint64_t table_id, std::unique_ptr<RandomAccessFile> file,
                   uint64_t file_size, BlockCache* cache,
                   std::unique_ptr<Table>* table) {
  table->reset();
  if (file_size < kFooterSize) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[kFooterSize];
  Slice footer_input;
  Status s = file->Read(file_size - kFooterSize, kFooterSize, &footer_input,
                        footer_space);
  if (!s.ok()) return s;

  const uint64_t magic = DecodeFixed64(footer_input.data() + kFooterSize - 8);
  if (magic != kTableMagicV2) {
    return Status::Corruption("bad sstable magic number");
  }
  Slice handles(footer_input.data(), kFooterSize - 8);
  BlockHandle filter_handle, index_handle;
  if (!filter_handle.DecodeFrom(&handles) ||
      !index_handle.DecodeFrom(&handles)) {
    return Status::Corruption("bad footer handles");
  }

  auto t = std::unique_ptr<Table>(new Table(table_id, std::move(file), cache));

  // Load the bloom filter (small; kept pinned in memory).
  if (filter_handle.size > 0) {
    t->filter_data_.resize(filter_handle.size);
    Slice filter_input;
    s = t->file_->Read(filter_handle.offset, filter_handle.size, &filter_input,
                       t->filter_data_.data());
    if (!s.ok()) return s;
  }

  // Load and pin the index block.
  std::string index_buffer(index_handle.size + kBlockTrailerSize, '\0');
  Slice index_input;
  s = t->file_->Read(index_handle.offset, index_buffer.size(), &index_input,
                     index_buffer.data());
  if (!s.ok()) return s;
  if (index_input.size() < index_buffer.size()) {
    return Status::Corruption("truncated index block read");
  }
  std::string index_contents;
  s = t->DecodeBlockContents(index_input.data(), index_handle.size,
                             &index_contents);
  if (!s.ok()) {
    return Status::Corruption("index block checksum mismatch");
  }
  t->index_block_ = std::make_unique<Block>(std::move(index_contents));

  *table = std::move(t);
  return Status::OK();
}

bool Table::KeyMayMatch(const Slice& user_key) const {
  if (filter_data_.empty()) return true;
  return bloom_.KeyMayMatch(user_key, filter_data_);
}

namespace {

std::string BlockCacheKey(uint64_t table_id, uint64_t offset) {
  std::string key;
  PutFixed64(&key, table_id);
  PutFixed64(&key, offset);
  return key;
}

}  // namespace

Status Table::DecodeBlockContents(const char* payload, uint64_t payload_size,
                                  std::string* raw) const {
  const uint8_t type = static_cast<uint8_t>(payload[payload_size]);
  const uint32_t stored_crc = DecodeFixed32(payload + payload_size + 1);
  if (stored_crc != Crc32c(payload, payload_size)) {
    return Status::Corruption("data block checksum mismatch");
  }
  if (type != 0) return Status::Corruption("unknown block type");
  raw->append(payload, payload_size);
  return Status::OK();
}

Status Table::ReadBlock(const BlockHandle& handle, bool fill_cache,
                        std::shared_ptr<Block>* block) const {
  std::string cache_key;
  if (cache_ != nullptr) {
    cache_key = BlockCacheKey(table_id_, handle.offset);
    std::shared_ptr<Block> cached = cache_->Lookup(cache_key);
    if (cached != nullptr) {
      *block = std::move(cached);
      return Status::OK();
    }
  }

  std::string buffer(handle.size + kBlockTrailerSize, '\0');
  Slice input;
  Status s = file_->Read(handle.offset, buffer.size(), &input, buffer.data());
  if (!s.ok()) return s;
  if (input.size() < buffer.size()) {
    return Status::Corruption("truncated data block read");
  }
  std::string contents;
  s = DecodeBlockContents(input.data(), handle.size, &contents);
  if (!s.ok()) return s;

  auto b = std::make_shared<Block>(std::move(contents));
  if (cache_ != nullptr && fill_cache) {
    cache_->Insert(cache_key, b, b->size());
  }
  *block = std::move(b);
  return Status::OK();
}

Status Table::VerifyChecksums(uint64_t* blocks_checked) const {
  uint64_t checked = 0;
  Status result;
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(&icmp_));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    Slice handle_value = index_iter->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value)) {
      result = Status::Corruption("bad block handle in index block");
      break;
    }
    // Direct read, never through the cache: a cached copy proves nothing
    // about the bytes on disk.
    std::string buffer(handle.size + kBlockTrailerSize, '\0');
    Slice input;
    Status s =
        file_->Read(handle.offset, buffer.size(), &input, buffer.data());
    if (s.ok() && input.size() < buffer.size()) {
      s = Status::Corruption("truncated data block read at offset " +
                             std::to_string(handle.offset));
    }
    if (s.ok()) {
      std::string contents;
      s = DecodeBlockContents(input.data(), handle.size, &contents);
      if (!s.ok()) {
        s = Status::Corruption(std::string(s.message()) + " at offset " +
                               std::to_string(handle.offset));
      }
    }
    if (!s.ok()) {
      result = s;
      break;
    }
    checked++;
  }
  if (result.ok()) result = index_iter->status();
  if (blocks_checked != nullptr) *blocks_checked = checked;
  return result;
}

std::shared_ptr<Block> Table::CachedBlock(const BlockHandle& handle) const {
  if (cache_ == nullptr) return nullptr;
  return cache_->Lookup(BlockCacheKey(table_id_, handle.offset));
}

Status Table::ReadBlockRun(const BlockHandle& first,
                           const std::vector<BlockHandle>& more,
                           bool fill_cache, std::shared_ptr<Block>* block,
                           uint64_t* cached) const {
  *cached = 0;
  // Readahead pays off only when later blocks can be parked somewhere; with
  // no cache fall back to the single-block read.
  if (cache_ == nullptr || !fill_cache || more.empty()) {
    return ReadBlock(first, fill_cache, block);
  }
  const std::string first_key = BlockCacheKey(table_id_, first.offset);
  std::shared_ptr<Block> hit = cache_->Lookup(first_key);
  if (hit != nullptr) {
    // The run was read ahead earlier (or the block is simply hot); one
    // lookup replaces the whole I/O.
    *block = std::move(hit);
    return Status::OK();
  }

  const BlockHandle& last = more.back();
  const uint64_t total =
      last.offset + last.size + kBlockTrailerSize - first.offset;
  std::string buffer(total, '\0');
  Slice input;
  Status s = file_->Read(first.offset, total, &input, buffer.data());
  if (!s.ok()) return s;
  if (input.size() < total) {
    // Short read (run handles disagree with the file); take the safe path.
    return ReadBlock(first, fill_cache, block);
  }

  auto slice_block = [&](const BlockHandle& h,
                         std::shared_ptr<Block>* out) -> bool {
    const char* base = input.data() + (h.offset - first.offset);
    std::string contents;
    if (!DecodeBlockContents(base, h.size, &contents).ok()) return false;
    *out = std::make_shared<Block>(std::move(contents));
    return true;
  };

  std::shared_ptr<Block> b;
  if (!slice_block(first, &b)) {
    return Status::Corruption("data block checksum mismatch");
  }
  cache_->Insert(first_key, b, b->size());
  for (const BlockHandle& h : more) {
    std::shared_ptr<Block> ahead;
    if (!slice_block(h, &ahead)) break;  // unneeded so far; end the run
    cache_->Insert(BlockCacheKey(table_id_, h.offset), ahead, ahead->size());
    (*cached)++;
  }
  *block = std::move(b);
  return Status::OK();
}

// Two-level iterator: walks the index block; for each index entry opens the
// pointed-to data block.
class TableIterator final : public Iterator {
 public:
  TableIterator(const Table* table, const ReadOptions& ro)
      : table_(table),
        ro_(ro),
        index_iter_(table->index_block_->NewIterator(&table->icmp_)) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void Next() override {
    assert(Valid());
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!status_.ok()) return status_;
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return index_iter_->status();
  }

 private:
  static constexpr uint64_t kNoBlock = ~0ull;

  void InitDataBlock() {
    if (!status_.ok() || !index_iter_->Valid()) {
      data_iter_.reset();
      data_block_.reset();
      cur_block_offset_ = kNoBlock;
      return;
    }
    Slice handle_value = index_iter_->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value)) {
      status_ = Status::Corruption("bad index entry");
      data_iter_.reset();
      cur_block_offset_ = kNoBlock;
      return;
    }
    if (data_iter_ != nullptr && handle.offset == cur_block_offset_) {
      // Batched-scan fast path: the new position lands in the block that is
      // already loaded (common when sorted windows advance monotonically).
      // Keep the block and its iterator; the caller re-positions it.
      if (ro_.perf != nullptr) ro_.perf->block_reuse++;
      return;
    }
    std::shared_ptr<Block> block;
    Status s;
    const bool sequential = handle.offset == next_sequential_offset_;
    seq_advances_ = sequential ? seq_advances_ + 1 : 0;
    if (!sequential) ramp_bytes_ = 0;
    if (ro_.readahead_bytes > 0 && sequential &&
        (block = table_->CachedBlock(handle)) != nullptr) {
      // The block is already resident (read ahead earlier, or simply hot):
      // skip the run-handle index walk entirely.
    } else if (ro_.readahead_bytes > 0 && sequential && seq_advances_ >= 2) {
      // Sequential pattern confirmed (two consecutive blocks starting
      // exactly where the previous one ended): pull the contiguous run
      // behind this block in one I/O. The budget ramps up per run so short
      // window scans do not pay for 16 decoded-but-unused blocks.
      ramp_bytes_ = ramp_bytes_ == 0
                        ? std::min<size_t>(16 * 1024, ro_.readahead_bytes)
                        : std::min<size_t>(ramp_bytes_ * 2,
                                           ro_.readahead_bytes);
      uint64_t cached = 0;
      s = table_->ReadBlockRun(handle, CollectRunHandles(handle, ramp_bytes_),
                               ro_.fill_cache, &block, &cached);
      if (ro_.perf != nullptr) ro_.perf->blocks_readahead += cached;
    } else {
      s = table_->ReadBlock(handle, ro_.fill_cache, &block);
    }
    if (!s.ok()) {
      // Sticky: a checksum failure must surface to the caller, never be
      // silently skipped (that would present lost rows as absent keys).
      status_ = s;
      data_iter_.reset();
      cur_block_offset_ = kNoBlock;
      return;
    }
    cur_block_offset_ = handle.offset;
    next_sequential_offset_ =
        handle.offset + handle.size + kBlockTrailerSize;
    data_block_ = std::move(block);
    data_iter_.reset(data_block_->NewIterator(&table_->icmp_));
  }

  // Handles of the data blocks immediately following `first` (contiguous in
  // the file), up to the readahead byte budget. Walks a private index-block
  // iterator so index_iter_'s position is untouched.
  std::vector<BlockHandle> CollectRunHandles(const BlockHandle& first,
                                             size_t budget) const {
    std::vector<BlockHandle> run;
    uint64_t expected = first.offset + first.size + kBlockTrailerSize;
    std::unique_ptr<Iterator> peek(
        table_->index_block_->NewIterator(&table_->icmp_));
    peek->Seek(index_iter_->key());
    if (!peek->Valid()) return run;
    for (peek->Next(); peek->Valid(); peek->Next()) {
      Slice hv = peek->value();
      BlockHandle h;
      if (!h.DecodeFrom(&hv)) break;
      if (h.offset != expected) break;  // not contiguous; stop the run
      if (h.size + kBlockTrailerSize > budget) break;
      budget -= static_cast<size_t>(h.size) + kBlockTrailerSize;
      expected = h.offset + h.size + kBlockTrailerSize;
      run.push_back(h);
    }
    return run;
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!status_.ok() || !index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  const Table* table_;
  const ReadOptions ro_;
  std::unique_ptr<Iterator> index_iter_;
  std::shared_ptr<Block> data_block_;  // keeps block alive for data_iter_
  std::unique_ptr<Iterator> data_iter_;
  uint64_t cur_block_offset_ = kNoBlock;        // offset of data_block_
  uint64_t next_sequential_offset_ = kNoBlock;  // end of the last block read
  uint32_t seq_advances_ = 0;  // consecutive exactly-sequential block loads
  size_t ramp_bytes_ = 0;      // current readahead budget (doubles per run)
  Status status_;
};

Iterator* Table::NewIterator(const ReadOptions& ro) const {
  return new TableIterator(this, ro);
}

void Table::AppendIndexUserKeys(const Slice& start, const Slice& end,
                                std::vector<std::string>* out) const {
  std::unique_ptr<Iterator> index_iter(index_block_->NewIterator(&icmp_));
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    const Slice user_key = ExtractUserKey(index_iter->key());
    if (user_key.compare(start) <= 0) continue;
    if (!end.empty() && user_key.compare(end) >= 0) break;
    out->push_back(user_key.ToString());
  }
}

Status Table::InternalGet(const ReadOptions& ro, const Slice& k, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  if (!KeyMayMatch(ExtractUserKey(k))) return Status::OK();
  TableIterator iter(this, ro);
  iter.Seek(k);
  if (iter.Valid()) {
    handle_result(arg, iter.key(), iter.value());
  }
  return iter.status();
}

}  // namespace tman::kv
