#include "kvstore/write_batch.h"

#include "common/coding.h"
#include "kvstore/dbformat.h"
#include "kvstore/memtable.h"

namespace tman::kv {

namespace {
constexpr size_t kHeader = 12;  // 8-byte sequence + 4-byte count
}  // namespace

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader);
}

uint32_t WriteBatch::Count() const { return DecodeFixed32(rep_.data() + 8); }

namespace {
void SetCount(std::string* rep, uint32_t n) {
  char buf[4];
  memcpy(buf, &n, sizeof(n));
  rep->replace(8, 4, buf, 4);
}
}  // namespace

void WriteBatch::Put(const Slice& key, const Slice& value) {
  SetCount(&rep_, Count() + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(const Slice& key) {
  SetCount(&rep_, Count() + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

void WriteBatch::Append(const WriteBatch& other) {
  SetCount(&rep_, Count() + other.Count());
  rep_.append(other.rep_.data() + kHeader, other.rep_.size() - kHeader);
}

void WriteBatch::SetSequence(uint64_t seq) {
  char buf[8];
  memcpy(buf, &seq, sizeof(seq));
  rep_.replace(0, 8, buf, 8);
}

uint64_t WriteBatch::Sequence() const { return DecodeFixed64(rep_.data()); }

void WriteBatch::SetContentsFrom(const Slice& contents) {
  rep_.assign(contents.data(), contents.size());
}

Status WriteBatch::InsertInto(MemTable* mem) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  SequenceNumber seq = Sequence();
  input.remove_prefix(kHeader);
  uint32_t found = 0;
  while (!input.empty()) {
    found++;
    char tag = input[0];
    input.remove_prefix(1);
    Slice key, value;
    switch (static_cast<ValueType>(tag)) {
      case kTypeValue:
        if (!GetLengthPrefixedSlice(&input, &key) ||
            !GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("bad WriteBatch Put");
        }
        mem->Add(seq, kTypeValue, key, value);
        break;
      case kTypeDeletion:
        if (!GetLengthPrefixedSlice(&input, &key)) {
          return Status::Corruption("bad WriteBatch Delete");
        }
        mem->Add(seq, kTypeDeletion, key, Slice());
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
    seq++;
  }
  if (found != Count()) {
    return Status::Corruption("WriteBatch has wrong count");
  }
  return Status::OK();
}

}  // namespace tman::kv
