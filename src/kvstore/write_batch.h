#ifndef TMAN_KVSTORE_WRITE_BATCH_H_
#define TMAN_KVSTORE_WRITE_BATCH_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace tman::kv {

class MemTable;

// Atomic group of updates. Serialized form (also the WAL payload):
//   sequence fixed64 | count fixed32 | records...
// record := kTypeValue  varstring key varstring value
//         | kTypeDeletion varstring key
class WriteBatch {
 public:
  WriteBatch();

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  // Appends all of `other`'s updates to this batch (group commit: the
  // write leader folds follower batches into one WAL record).
  void Append(const WriteBatch& other);

  // Number of updates in the batch.
  uint32_t Count() const;

  // Applies all updates to the memtable, numbering entries starting at the
  // batch's sequence number. The caller must be the memtable's only writer.
  Status InsertInto(MemTable* mem) const;

  // Internal plumbing between DB and WAL.
  void SetSequence(uint64_t seq);
  uint64_t Sequence() const;
  const std::string& rep() const { return rep_; }
  void SetContentsFrom(const Slice& contents);

  size_t ApproximateSize() const { return rep_.size(); }

 private:
  std::string rep_;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_WRITE_BATCH_H_
