#include "core/rowkey.h"

#include "common/coding.h"
#include "common/hash.h"

namespace tman::core {

uint8_t ShardOfTid(const Slice& tid, int num_shards) {
  return static_cast<uint8_t>(Hash32(tid.data(), tid.size(), 0x7d1) %
                              static_cast<uint32_t>(num_shards));
}

uint8_t ShardOfOid(const Slice& oid, int num_shards) {
  return static_cast<uint8_t>(Hash32(oid.data(), oid.size(), 0x01d) %
                              static_cast<uint32_t>(num_shards));
}

std::string PrimaryKey(uint8_t shard, uint64_t value, const Slice& tid) {
  std::string key;
  key.push_back(static_cast<char>(shard));
  PutBigEndian64(&key, value);
  key.append(tid.data(), tid.size());
  return key;
}

std::string PrimaryKeyST(uint8_t shard, uint64_t tr_value, uint64_t sp_value,
                         const Slice& tid) {
  std::string key;
  key.push_back(static_cast<char>(shard));
  PutBigEndian64(&key, tr_value);
  PutBigEndian64(&key, sp_value);
  key.append(tid.data(), tid.size());
  return key;
}

std::string SecondaryTRKey(uint8_t shard, uint64_t tr_value,
                           const Slice& tid) {
  return PrimaryKey(shard, tr_value, tid);
}

std::string IDTKey(uint8_t shard, const Slice& oid, uint64_t tr_value,
                   const Slice& tid) {
  std::string key;
  key.push_back(static_cast<char>(shard));
  key.append(oid.data(), oid.size());
  key.push_back('\0');
  PutBigEndian64(&key, tr_value);
  key.append(tid.data(), tid.size());
  return key;
}

Slice TidOfPrimaryKey(const Slice& key, size_t value_bytes) {
  const size_t prefix = 1 + value_bytes;
  if (key.size() <= prefix) return Slice();
  return Slice(key.data() + prefix, key.size() - prefix);
}

namespace {

// [shard][BE64 lo] .. [shard][BE64 hi]+1. The end key is the first key
// strictly above every key with value <= hi.
cluster::KeyRange WindowFor(uint8_t shard, uint64_t lo, uint64_t hi) {
  cluster::KeyRange range;
  range.start.push_back(static_cast<char>(shard));
  PutBigEndian64(&range.start, lo);
  range.end.push_back(static_cast<char>(shard));
  if (hi == UINT64_MAX) {
    // Exclusive end past the whole shard.
    range.end.clear();
    range.end.push_back(static_cast<char>(shard + 1));
  } else {
    PutBigEndian64(&range.end, hi + 1);
  }
  return range;
}

// [shard][BE64 tr][BE64 lo] .. the first key strictly above every key of
// that tr value with spatial value <= hi.
cluster::KeyRange STWindowFor(uint8_t shard, uint64_t tr_value, uint64_t lo,
                              uint64_t hi) {
  cluster::KeyRange range;
  range.start.push_back(static_cast<char>(shard));
  PutBigEndian64(&range.start, tr_value);
  PutBigEndian64(&range.start, lo);
  range.end.push_back(static_cast<char>(shard));
  if (hi == UINT64_MAX) {
    PutBigEndian64(&range.end, tr_value + 1);
  } else {
    PutBigEndian64(&range.end, tr_value);
    PutBigEndian64(&range.end, hi + 1);
  }
  return range;
}

}  // namespace

std::vector<cluster::KeyRange> WindowsForRanges(
    const std::vector<index::ValueRange>& ranges, int num_shards) {
  std::vector<cluster::KeyRange> windows;
  windows.reserve(ranges.size() * static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; s++) {
    for (const index::ValueRange& r : ranges) {
      windows.push_back(WindowFor(static_cast<uint8_t>(s), r.lo, r.hi));
    }
  }
  return windows;
}

std::vector<cluster::KeyRange> WindowsForSTRanges(
    const std::vector<index::ValueRange>& tr_ranges,
    const std::vector<index::ValueRange>& spatial_ranges, int num_shards) {
  std::vector<cluster::KeyRange> windows;
  windows.reserve(index::TotalCount(tr_ranges) * spatial_ranges.size() *
                  static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; s++) {
    for (const index::ValueRange& tr : tr_ranges) {
      for (uint64_t tr_value = tr.lo; tr_value <= tr.hi; tr_value++) {
        for (const index::ValueRange& r : spatial_ranges) {
          windows.push_back(
              STWindowFor(static_cast<uint8_t>(s), tr_value, r.lo, r.hi));
        }
      }
    }
  }
  return windows;
}

std::vector<cluster::KeyRange> WindowsForTRIntervals(
    const std::vector<index::ValueRange>& tr_ranges, int num_shards) {
  return WindowsForRanges(tr_ranges, num_shards);
}

std::vector<cluster::KeyRange> WindowsForIDT(
    const Slice& oid, const std::vector<index::ValueRange>& tr_ranges,
    int num_shards) {
  // All of one object's rows share a single shard.
  const uint8_t shard = ShardOfOid(oid, num_shards);
  std::vector<cluster::KeyRange> windows;
  windows.reserve(tr_ranges.size());
  for (const index::ValueRange& r : tr_ranges) {
    cluster::KeyRange range;
    range.start.push_back(static_cast<char>(shard));
    range.start.append(oid.data(), oid.size());
    range.start.push_back('\0');
    PutBigEndian64(&range.start, r.lo);
    range.end.push_back(static_cast<char>(shard));
    range.end.append(oid.data(), oid.size());
    range.end.push_back('\0');
    PutBigEndian64(&range.end, r.hi == UINT64_MAX ? r.hi : r.hi + 1);
    windows.push_back(std::move(range));
  }
  return windows;
}

}  // namespace tman::core
