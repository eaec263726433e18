#include "kvstore/memtable.h"

#include "common/coding.h"

namespace tman::kv {

namespace {

// Decodes a length-prefixed slice stored at `data`.
Slice GetLengthPrefixed(const char* data) {
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  Slice ka = GetLengthPrefixed(a);
  Slice kb = GetLengthPrefixed(b);
  return comparator.Compare(ka, kb);
}

MemTable::MemTable(const InternalKeyComparator& cmp)
    : comparator_{cmp}, table_(comparator_, &arena_) {}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t key_size = key.size();
  const size_t val_size = value.size();
  const size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);

  // Encode in place; the record becomes visible only once the skiplist
  // insert publishes `buf`.
  char* p = EncodeVarint32To(buf, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key_size);
  p += key_size;
  p = EncodeFixed64To(p, PackSequenceAndType(seq, type));
  p = EncodeVarint32To(p, static_cast<uint32_t>(val_size));
  memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);

  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s) {
  Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (!iter.Valid()) return false;

  // The skiplist positions us at the first entry >= (user_key, seq). Check
  // whether it belongs to the same user key.
  const char* entry = iter.key();
  uint32_t key_length;
  const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
  if (Slice(key_ptr, key_length - 8) != key.user_key()) return false;

  const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
  switch (static_cast<ValueType>(tag & 0xff)) {
    case kTypeValue: {
      Slice v = GetLengthPrefixed(key_ptr + key_length);
      value->assign(v.data(), v.size());
      *s = Status::OK();
      return true;
    }
    case kTypeDeletion:
      *s = Status::NotFound("deleted");
      return true;
  }
  return false;
}

namespace {

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(
      const SkipList<const char*, MemTable::KeyComparator>* table)
      : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }

  void SeekToFirst() override { iter_.SeekToFirst(); }

  void Seek(const Slice& target) override {
    // Encode target as a memtable key (length-prefixed internal key).
    tmp_.clear();
    PutVarint32(&tmp_, static_cast<uint32_t>(target.size()));
    tmp_.append(target.data(), target.size());
    iter_.Seek(tmp_.data());
  }

  void Next() override { iter_.Next(); }

  Slice key() const override { return GetLengthPrefixed(iter_.key()); }

  Slice value() const override {
    Slice k = GetLengthPrefixed(iter_.key());
    return GetLengthPrefixed(k.data() + k.size());
  }

  Status status() const override { return Status::OK(); }

 private:
  SkipList<const char*, MemTable::KeyComparator>::Iterator iter_;
  std::string tmp_;
};

}  // namespace

Iterator* MemTable::NewIterator() const {
  return new MemTableIterator(&table_);
}

}  // namespace tman::kv
