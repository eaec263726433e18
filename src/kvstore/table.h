#ifndef TMAN_KVSTORE_TABLE_H_
#define TMAN_KVSTORE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kvstore/block.h"
#include "kvstore/block_builder.h"
#include "kvstore/bloom.h"
#include "kvstore/cache.h"
#include "kvstore/dbformat.h"
#include "kvstore/env.h"
#include "kvstore/iterator.h"
#include "kvstore/options.h"

namespace tman::kv {

// Location of a block inside an SSTable file.
struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice* input);
};

// Per-block trailer: one type byte, always 0 (a raw block), followed by
// fixed32 crc over the payload. A reader takes any other type byte as
// Corruption. The footer magic names this format (v2); any other magic,
// including the retired v1, is Corruption.
inline constexpr size_t kBlockTrailerSize = 5;

// Target size of SSTable data blocks.
inline constexpr size_t kBlockSize = 4 * 1024;

// Restart-point interval inside data blocks.
inline constexpr int kBlockRestartInterval = 16;

// Bits per key of each table's bloom filter.
inline constexpr int kBloomBitsPerKey = 10;

// SSTable file layout:
//   data block*           (each followed by the trailer above)
//   filter block          (one bloom filter over all user keys; no trailer)
//   index block           (separator key -> BlockHandle; same trailer)
//   footer                (filter handle | index handle | padding | magic)
class TableBuilder {
 public:
  explicit TableBuilder(WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // Keys are internal keys added in sorted order.
  void Add(const Slice& key, const Slice& value);

  Status Finish();

  uint64_t NumEntries() const { return num_entries_; }
  uint64_t FileSize() const { return offset_; }
  Status status() const { return status_; }

 private:
  void FlushDataBlock();
  Status WriteBlock(const Slice& contents, BlockHandle* handle);

  WritableFile* file_;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  Status status_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;
  BloomFilterPolicy bloom_;
  std::vector<std::string> filter_keys_;  // user keys for the bloom filter
  bool closed_ = false;
};

using BlockCache = ShardedLRUCache<Block>;

// Immutable reader for one SSTable.
class Table {
 public:
  // Takes ownership of `file`. cache may be nullptr.
  static Status Open(uint64_t table_id, std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, BlockCache* cache,
                     std::unique_ptr<Table>* table);

  ~Table() = default;

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Two-level iterator over internal keys.
  Iterator* NewIterator(const ReadOptions& ro) const;

  // Point lookup: positions at the first entry >= internal key `k` and, if
  // it matches, invokes handle_result(key, value). The bloom filter is
  // consulted first.
  Status InternalGet(const ReadOptions& ro, const Slice& k,
                     void* arg,
                     void (*handle_result)(void*, const Slice&, const Slice&));

  // Whether the table's bloom filter admits this user key.
  bool KeyMayMatch(const Slice& user_key) const;

  // Whether this table carries a bloom filter at all.
  bool has_filter() const { return !filter_data_.empty(); }

  // Re-reads every data block from disk (bypassing the block cache, which
  // would mask on-disk damage) and verifies its trailer: the CRC over the
  // on-disk bytes and the type byte. *blocks_checked (may be nullptr)
  // receives the number of blocks read. Returns the first corruption found.
  Status VerifyChecksums(uint64_t* blocks_checked) const;

  // Appends the user-key portion of every index-block separator key that
  // falls inside (start, end) to *out (empty end = +infinity, both bounds
  // exclusive). Each separator stands for roughly one data block of bytes,
  // so the collected keys are an approximately size-weighted sample of the
  // table's key distribution — the input for median-split-key estimation.
  // Reads only the resident index block: no data-block I/O.
  void AppendIndexUserKeys(const Slice& start, const Slice& end,
                           std::vector<std::string>* out) const;


 private:
  friend class TableIterator;

  Table(uint64_t table_id, std::unique_ptr<RandomAccessFile> file,
        BlockCache* cache)
      : table_id_(table_id),
        file_(std::move(file)),
        cache_(cache),
        bloom_(kBloomBitsPerKey) {}

  // Verifies the trailer (located at payload + handle-size) against the
  // on-disk payload bytes and appends the block contents to *raw.
  // `payload` must have at least payload_size + kBlockTrailerSize bytes.
  Status DecodeBlockContents(const char* payload, uint64_t payload_size,
                             std::string* raw) const;

  // Reads (or fetches from cache) the block at `handle`.
  Status ReadBlock(const BlockHandle& handle, bool fill_cache,
                   std::shared_ptr<Block>* block) const;

  // Cache-only probe for the block at `handle`; nullptr on miss or when no
  // cache is attached. Lets the iterator skip readahead bookkeeping for
  // blocks that are already resident.
  std::shared_ptr<Block> CachedBlock(const BlockHandle& handle) const;

  // Sequential readahead: reads the block at `first` plus the contiguous
  // run of blocks in `more` with a single I/O, parking the run in the block
  // cache so the iterator's subsequent InitDataBlock calls hit it. Returns
  // the first block; *cached reports how many run blocks were inserted. A
  // checksum failure in a run block just ends the run (that block has not
  // been asked for yet); a failure in `first` is a real Corruption.
  Status ReadBlockRun(const BlockHandle& first,
                      const std::vector<BlockHandle>& more, bool fill_cache,
                      std::shared_ptr<Block>* block, uint64_t* cached) const;

  const uint64_t table_id_;
  std::unique_ptr<RandomAccessFile> file_;
  BlockCache* cache_;
  BloomFilterPolicy bloom_;
  std::string filter_data_;
  std::unique_ptr<Block> index_block_;
  InternalKeyComparator icmp_;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_TABLE_H_
