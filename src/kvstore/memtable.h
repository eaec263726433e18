#ifndef TMAN_KVSTORE_MEMTABLE_H_
#define TMAN_KVSTORE_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "kvstore/arena.h"
#include "kvstore/dbformat.h"
#include "kvstore/iterator.h"
#include "kvstore/skiplist.h"

namespace tman::kv {

// In-memory sorted write buffer. Entries live in an arena; the table is a
// skiplist over encoded records:
//   varint32 internal_key_len | internal_key | varint32 value_len | value
//
// Concurrency: one writer at a time (the group-commit leader, or WAL
// replay at Open) calls Add; readers (Get/NewIterator/
// ApproximateMemoryUsage) are always safe against that in-flight writer.
class MemTable {
 public:
  explicit MemTable(const InternalKeyComparator& cmp);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Requires external synchronization: at most one Add at a time.
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // If the memtable holds a value for key, sets *value and returns true.
  // If it holds a deletion, sets *s to NotFound and returns true.
  bool Get(const LookupKey& key, std::string* value, Status* s);

  // Iterator over internal keys. The memtable must outlive the iterator.
  Iterator* NewIterator() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  // Safe to read while writers insert; monotonically grows.
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  // Public so the iterator implementation (in the .cc) can name the table
  // type; not part of the user-facing API.
  struct KeyComparator {
    InternalKeyComparator comparator;
    int operator()(const char* a, const char* b) const;
  };

 private:
  using Table = SkipList<const char*, KeyComparator>;

  KeyComparator comparator_;
  Arena arena_;
  Table table_;
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_MEMTABLE_H_
