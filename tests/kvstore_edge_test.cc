#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/random.h"
#include "kvstore/arena.h"
#include "kvstore/db.h"
#include "kvstore/dbformat.h"
#include "kvstore/merge_iterator.h"
#include "kvstore/table.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_kvedge_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreDistinctAndUsable) {
  Arena arena;
  std::vector<char*> blocks;
  for (int i = 1; i <= 200; i++) {
    char* p = arena.Allocate(i);
    memset(p, i & 0xff, i);
    blocks.push_back(p);
  }
  // Nothing was clobbered.
  for (int i = 1; i <= 200; i++) {
    for (int j = 0; j < i; j++) {
      EXPECT_EQ(static_cast<unsigned char>(blocks[i - 1][j]), i & 0xff);
    }
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena;
  for (int i = 0; i < 50; i++) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(16);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(ArenaTest, LargeAllocationsGetOwnBlocks) {
  Arena arena;
  char* big = arena.Allocate(64 * 1024);
  memset(big, 0x5a, 64 * 1024);
  char* small = arena.Allocate(8);
  memset(small, 0x11, 8);
  EXPECT_EQ(static_cast<unsigned char>(big[0]), 0x5a);
}

// ---------------------------------------------------------------------------
// Internal key format

TEST(DBFormatTest, InternalKeyOrdering) {
  InternalKeyComparator cmp;
  InternalKey a("key", 5, kTypeValue);
  InternalKey b("key", 9, kTypeValue);
  // Higher sequence sorts first (newest wins).
  EXPECT_GT(cmp.Compare(a.Encode(), b.Encode()), 0);
  InternalKey c("kez", 1, kTypeValue);
  EXPECT_LT(cmp.Compare(a.Encode(), c.Encode()), 0);
}

TEST(DBFormatTest, ParseRoundTrip) {
  InternalKey key("user-key", 123456, kTypeDeletion);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(key.Encode(), &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "user-key");
  EXPECT_EQ(parsed.sequence, 123456u);
  EXPECT_EQ(parsed.type, kTypeDeletion);
}

TEST(DBFormatTest, LookupKeyParts) {
  LookupKey key("abc", 77);
  EXPECT_EQ(key.user_key().ToString(), "abc");
  EXPECT_EQ(ExtractUserKey(key.internal_key()).ToString(), "abc");
}

// ---------------------------------------------------------------------------
// Merging iterator

class VectorIterator final : public Iterator {
 public:
  explicit VectorIterator(std::vector<std::pair<std::string, std::string>> kv)
      : kv_(std::move(kv)), pos_(kv_.size()) {}
  bool Valid() const override { return pos_ < kv_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    pos_ = 0;
    InternalKeyComparator cmp;
    while (pos_ < kv_.size() && cmp.Compare(kv_[pos_].first, target) < 0) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  Slice key() const override { return kv_[pos_].first; }
  Slice value() const override { return kv_[pos_].second; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  size_t pos_;
};

std::pair<std::string, std::string> Entry(const std::string& key,
                                          SequenceNumber seq,
                                          const std::string& value) {
  std::string ikey;
  AppendInternalKey(&ikey, key, seq, kTypeValue);
  return {ikey, value};
}

TEST(MergeIteratorTest, InterleavesSortedStreams) {
  InternalKeyComparator cmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator({Entry("a", 1, "1"),
                                         Entry("c", 1, "3")}));
  children.push_back(new VectorIterator({Entry("b", 1, "2"),
                                         Entry("d", 1, "4")}));
  children.push_back(new VectorIterator({}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&cmp, std::move(children)));
  std::string got;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    got += merged->value().ToString();
  }
  EXPECT_EQ(got, "1234");
}

TEST(MergeIteratorTest, NewestVersionComesFirst) {
  InternalKeyComparator cmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator({Entry("k", 5, "old")}));
  children.push_back(new VectorIterator({Entry("k", 9, "new")}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&cmp, std::move(children)));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "old");
}

// ---------------------------------------------------------------------------
// Block iterator Seek edge cases

std::string InternalKeyOf(const std::string& user_key) {
  std::string ikey;
  AppendInternalKey(&ikey, user_key, 1, kTypeValue);
  return ikey;
}

// Block with zero entries (one restart point, no data): Seek and
// SeekToFirst land invalid without reading out of bounds.
TEST(BlockSeekEdgeTest, EmptyBlockIsInvalidNotOOB) {
  BlockBuilder builder(4);
  Block block(builder.Finish().ToString());
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  iter->Seek(InternalKeyOf("anything"));
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());

  // Degenerate contents: too short for a trailer, and a trailer claiming
  // zero restart points. Both must stay invalid, not crash.
  Block malformed((std::string()));
  std::unique_ptr<Iterator> bad(malformed.NewIterator(&icmp));
  bad->Seek(InternalKeyOf("x"));
  EXPECT_FALSE(bad->Valid());
  Block zero_restarts(std::string(4, '\0'));
  std::unique_ptr<Iterator> zero(zero_restarts.NewIterator(&icmp));
  zero->SeekToFirst();
  EXPECT_FALSE(zero->Valid());
  zero->Seek(InternalKeyOf("x"));
  EXPECT_FALSE(zero->Valid());
}

// Seeking past every key leaves the iterator cleanly exhausted.
TEST(BlockSeekEdgeTest, SeekPastLastRestartKey) {
  BlockBuilder builder(2);
  for (int i = 0; i < 9; i++) {
    builder.Add(InternalKeyOf("key" + std::to_string(i)), "v");
  }
  Block block(builder.Finish().ToString());
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));
  iter->Seek(InternalKeyOf("zzz"));
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
  // And a target inside the last restart region still works.
  iter->Seek(InternalKeyOf("key8"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "key8");
}

// A restart array whose offsets point into the trailer must surface
// Corruption from Seek's binary search instead of dereferencing past the
// entry area.
TEST(BlockSeekEdgeTest, MalformedRestartArraySurfacesCorruption) {
  BlockBuilder builder(1);  // every entry is a restart point
  for (int i = 0; i < 8; i++) {
    builder.Add(InternalKeyOf("key" + std::to_string(i)), "v");
  }
  std::string contents = builder.Finish().ToString();
  const uint32_t num_restarts =
      DecodeFixed32(contents.data() + contents.size() - 4);
  ASSERT_EQ(num_restarts, 8u);
  const size_t restart_offset = contents.size() - (1 + num_restarts) * 4;
  // Point every non-zero restart at the end of the block.
  std::string enc;
  PutFixed32(&enc, static_cast<uint32_t>(contents.size()));
  for (uint32_t i = 1; i < num_restarts; i++) {
    contents.replace(restart_offset + i * 4, 4, enc);
  }
  Block block(std::move(contents));
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));
  iter->Seek(InternalKeyOf("key7"));
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

// Regression guard for the reusable-buffer key decode: prefix-compressed
// entries (shared > 0) and restart entries (pinned slices into the block)
// must interleave correctly under both iteration and repeated seeks.
TEST(BlockSeekEdgeTest, PrefixCompressedKeysSurviveSeekAndScan) {
  BlockBuilder builder(16);
  std::vector<std::string> ikeys;
  for (int i = 0; i < 100; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "sharedprefix%04d", i);
    ikeys.push_back(InternalKeyOf(buf));
    builder.Add(ikeys.back(), "value" + std::to_string(i));
  }
  Block block(builder.Finish().ToString());
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));
  iter->SeekToFirst();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(iter->Valid()) << i;
    EXPECT_EQ(iter->key().ToString(), ikeys[i]);
    EXPECT_EQ(iter->value().ToString(), "value" + std::to_string(i));
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  // Seeks in descending order re-enter earlier restart regions, exercising
  // the pinned -> buffered -> pinned transitions.
  for (int i = 99; i >= 0; i -= 7) {
    iter->Seek(ikeys[static_cast<size_t>(i)]);
    ASSERT_TRUE(iter->Valid()) << i;
    EXPECT_EQ(iter->key().ToString(), ikeys[static_cast<size_t>(i)]);
  }
}

// ---------------------------------------------------------------------------
// SSTable corruption handling

TEST(TableTest, DetectsCorruptMagic) {
  const std::string dir = TestDir("corrupt");
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/bad.sst";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
    ASSERT_TRUE(file->Append(std::string(100, 'x')).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
  std::unique_ptr<Table> table;
  const Status s = Table::Open(1, std::move(file), 100, nullptr, &table);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(TableTest, DetectsFlippedDataBit) {
  const std::string dir = TestDir("bitflip");
  Options options;
  options.write_buffer_size = 1 << 20;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(50, 'v'))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip one byte in the middle of the only SSTable.
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") sst = entry.path();
  }
  ASSERT_FALSE(sst.empty());
  {
    FILE* f = fopen(sst.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 500, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 500, SEEK_SET);
    fputc(c ^ 0xff, f);
    fclose(f);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  // Some read must surface the corruption (checksum mismatch), and no read
  // may return wrong data silently.
  int corruption_seen = 0;
  for (int i = 0; i < 1000; i++) {
    std::string value;
    Status s = db->Get(ReadOptions(), "key" + std::to_string(i), &value);
    if (s.IsCorruption()) {
      corruption_seen++;
    } else if (s.ok()) {
      EXPECT_EQ(value, std::string(50, 'v'));
    }
  }
  EXPECT_GT(corruption_seen, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: readers during writes

TEST(DBConcurrencyTest, ConcurrentReadersSeeConsistentData) {
  const std::string dir = TestDir("concurrent");
  Options options;
  options.write_buffer_size = 32 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "stable" + std::to_string(i),
                        "value" + std::to_string(i))
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    Random rnd(1);
    while (!stop.load()) {
      const int i = static_cast<int>(rnd.Uniform(500));
      std::string value;
      Status s =
          db->Get(ReadOptions(), "stable" + std::to_string(i), &value);
      if (!s.ok() || value != "value" + std::to_string(i)) {
        reader_errors++;
      }
    }
  });
  std::thread scanner([&] {
    while (!stop.load()) {
      std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
      int count = 0;
      for (iter->Seek("stable"); iter->Valid(); iter->Next()) {
        if (!Slice(iter->key()).starts_with("stable")) break;
        count++;
      }
      if (count < 500) reader_errors++;
    }
  });

  // Writer churns other keys, forcing flushes and compactions underneath
  // the readers.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "churn" + std::to_string(i % 700),
                        std::string(100, static_cast<char>('a' + i % 26)))
                    .ok());
  }
  stop.store(true);
  reader.join();
  scanner.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

// Overwrite-heavy workload: compaction must drop shadowed versions but
// always serve the newest.
TEST(DBEdgeTest, HeavyOverwrites) {
  const std::string dir = TestDir("overwrite");
  Options options;
  options.write_buffer_size = 8 * 1024;
  options.base_level_bytes = 16 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int round = 0; round < 50; round++) {
    for (int k = 0; k < 50; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "hot" + std::to_string(k),
                          "round" + std::to_string(round))
                      .ok());
    }
  }
  ASSERT_TRUE(db->CompactAll().ok());
  for (int k = 0; k < 50; k++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "hot" + std::to_string(k), &value).ok());
    EXPECT_EQ(value, "round49");
  }
}

TEST(DBEdgeTest, EmptyAndZeroLengthValues) {
  const std::string dir = TestDir("empty");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "").ok());
  std::string value = "sentinel";
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "");
  // Empty scans on an empty range.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(
      db->Scan(ReadOptions(), "zzz", "zzzz", nullptr, 0, &rows, nullptr).ok());
  EXPECT_TRUE(rows.empty());
}

TEST(DBEdgeTest, BinaryKeysAndValues) {
  const std::string dir = TestDir("binary");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
  const std::string key("\x00\x01\xff\x7f", 4);
  const std::string value("\x00binary\xffvalue\x00", 14);
  ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok());
  EXPECT_EQ(got, value);
}

}  // namespace
}  // namespace tman::kv
