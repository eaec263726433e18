#ifndef TMAN_CORE_ROWKEY_H_
#define TMAN_CORE_ROWKEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/slice.h"
#include "index/value_range.h"

namespace tman::core {

// Rowkey layouts (paper Eq. 6: rowkey = shards :: index value :: tid).
//
//   primary (single index):  [shard 1B][BE64 value][tid]
//   primary (ST):            [shard 1B][BE64 tr][BE64 tshape][tid]
//   secondary TR:            [shard 1B][BE64 tr][tid]            -> primary key
//   secondary IDT:           [shard 1B][oid]\0[BE64 tr][tid]     -> primary key
//
// The shard byte is a hash salt (hot-spot avoidance): hash(tid) for rowkeys
// routed by trajectory, hash(oid) for the IDT table so one object's rows
// stay in one region. oids must not contain NUL bytes.

uint8_t ShardOfTid(const Slice& tid, int num_shards);
uint8_t ShardOfOid(const Slice& oid, int num_shards);

std::string PrimaryKey(uint8_t shard, uint64_t value, const Slice& tid);
std::string PrimaryKeyST(uint8_t shard, uint64_t tr_value, uint64_t sp_value,
                         const Slice& tid);
std::string SecondaryTRKey(uint8_t shard, uint64_t tr_value, const Slice& tid);
std::string IDTKey(uint8_t shard, const Slice& oid, uint64_t tr_value,
                   const Slice& tid);

// Extracts the trailing tid from a primary key with `value_bytes` of index
// payload (8 for single-index keys, 16 for ST keys).
Slice TidOfPrimaryKey(const Slice& key, size_t value_bytes);

// One scan window per shard per value range over single-index keys.
std::vector<cluster::KeyRange> WindowsForRanges(
    const std::vector<index::ValueRange>& ranges, int num_shards);

// Windows over ST keys: every tr value of `tr_ranges` crossed with the
// spatial ranges, in key order (shard, then tr value, then spatial range).
std::vector<cluster::KeyRange> WindowsForSTRanges(
    const std::vector<index::ValueRange>& tr_ranges,
    const std::vector<index::ValueRange>& spatial_ranges, int num_shards);

// Coarse ST windows spanning whole tr-value intervals (the spatial
// dimension is then enforced by the push-down filter).
std::vector<cluster::KeyRange> WindowsForTRIntervals(
    const std::vector<index::ValueRange>& tr_ranges, int num_shards);

// Windows over the IDT table for one object and a set of tr ranges.
std::vector<cluster::KeyRange> WindowsForIDT(
    const Slice& oid, const std::vector<index::ValueRange>& tr_ranges,
    int num_shards);

}  // namespace tman::core

#endif  // TMAN_CORE_ROWKEY_H_
