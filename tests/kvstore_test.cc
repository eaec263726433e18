#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "kvstore/bloom.h"
#include "kvstore/block.h"
#include "kvstore/block_builder.h"
#include "kvstore/db.h"
#include "kvstore/dbformat.h"
#include "kvstore/log.h"
#include "kvstore/memtable.h"
#include "kvstore/skiplist.h"
#include "kvstore/write_batch.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_kv_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// SkipList

struct IntComparator {
  int operator()(uint64_t a, uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertAndIterateSorted) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random rnd(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; i++) {
    uint64_t k = rnd.Uniform(10000);
    if (keys.insert(k).second) list.Insert(k);
  }
  for (uint64_t k : keys) EXPECT_TRUE(list.Contains(k));

  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t k : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), k);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k = 0; k < 100; k += 10) list.Insert(k);
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.Seek(35);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(40);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(95);
  EXPECT_FALSE(iter.Valid());
}

// ---------------------------------------------------------------------------
// MemTable

TEST(MemTableTest, PutGetDelete) {
  InternalKeyComparator icmp;
  MemTable mem(icmp);
  mem.Add(1, kTypeValue, "k1", "v1");
  mem.Add(2, kTypeValue, "k2", "v2");

  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k1", 10), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v1");

  mem.Add(3, kTypeDeletion, "k1", "");
  ASSERT_TRUE(mem.Get(LookupKey("k1", 10), &value, &s));
  EXPECT_TRUE(s.IsNotFound());

  // At an older snapshot the value is still visible.
  ASSERT_TRUE(mem.Get(LookupKey("k1", 2), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v1");

  EXPECT_FALSE(mem.Get(LookupKey("nope", 10), &value, &s));
}

TEST(MemTableTest, NewestVersionWins) {
  InternalKeyComparator icmp;
  MemTable mem(icmp);
  mem.Add(1, kTypeValue, "k", "old");
  mem.Add(5, kTypeValue, "k", "new");
  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &value, &s));
  EXPECT_EQ(value, "new");
}

// ---------------------------------------------------------------------------
// Block

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%04d", i);
    std::string ikey;
    AppendInternalKey(&ikey, key, 1, kTypeValue);
    entries[ikey] = "value" + std::to_string(i);
  }
  for (const auto& [k, v] : entries) builder.Add(k, v);
  Block block(builder.Finish().ToString());

  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));
  iter->SeekToFirst();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), k);
    EXPECT_EQ(iter->value().ToString(), v);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Seek to an existing key.
  std::string target;
  AppendInternalKey(&target, "key0050", kMaxSequenceNumber, kValueTypeForSeek);
  iter->Seek(target);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "key0050");
}

// ---------------------------------------------------------------------------
// Bloom filter

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterPolicy bloom(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) keys.push_back("bloomkey" + std::to_string(i));
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::string filter;
  bloom.CreateFilter(slices, &filter);
  for (const auto& k : keys) {
    EXPECT_TRUE(bloom.KeyMayMatch(k, filter)) << k;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterPolicy bloom(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) keys.push_back("in" + std::to_string(i));
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::string filter;
  bloom.CreateFilter(slices, &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    if (bloom.KeyMayMatch("out" + std::to_string(i), filter)) {
      false_positives++;
    }
  }
  // 10 bits/key gives ~1% FPR; allow generous slack.
  EXPECT_LT(false_positives, 300);
}

// ---------------------------------------------------------------------------
// WAL

TEST(LogTest, RoundTripAndTornTail) {
  std::string dir = TestDir("log");
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/test.wal";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("record-one").ok());
    ASSERT_TRUE(writer.AddRecord("record-two").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Append a torn record: header promising more bytes than present.
  {
    FILE* f = fopen(fname.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x01\x02\x03\x04\xff\x00\x00\x00partial";
    fwrite(garbage, 1, sizeof(garbage) - 1, f);
    fclose(f);
  }
  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(env->NewSequentialFile(fname, &file).ok());
  LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  ASSERT_TRUE(reader.ReadRecord(&record, &scratch));
  EXPECT_EQ(record.ToString(), "record-one");
  ASSERT_TRUE(reader.ReadRecord(&record, &scratch));
  EXPECT_EQ(record.ToString(), "record-two");
  EXPECT_FALSE(reader.ReadRecord(&record, &scratch));  // torn tail rejected
}

// ---------------------------------------------------------------------------
// WriteBatch

TEST(WriteBatchTest, CountAndApply) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  EXPECT_EQ(batch.Count(), 3u);
  batch.SetSequence(100);

  InternalKeyComparator icmp;
  MemTable mem(icmp);
  ASSERT_TRUE(batch.InsertInto(&mem).ok());
  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("a", 200), &value, &s));
  EXPECT_TRUE(s.IsNotFound());  // delete at seq 102 shadows put at 100
  ASSERT_TRUE(mem.Get(LookupKey("b", 200), &value, &s));
  EXPECT_EQ(value, "2");
}

// ---------------------------------------------------------------------------
// DB end-to-end

TEST(DBTest, PutGetOverwriteDelete) {
  std::string dir = TestDir("basic");
  std::unique_ptr<DB> db;
  Options options;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  WriteOptions wo;
  ReadOptions ro;
  ASSERT_TRUE(db->Put(wo, "key", "value1").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ro, "key", &value).ok());
  EXPECT_EQ(value, "value1");

  ASSERT_TRUE(db->Put(wo, "key", "value2").ok());
  ASSERT_TRUE(db->Get(ro, "key", &value).ok());
  EXPECT_EQ(value, "value2");

  ASSERT_TRUE(db->Delete(wo, "key").ok());
  EXPECT_TRUE(db->Get(ro, "key", &value).IsNotFound());
  EXPECT_TRUE(db->Get(ro, "never", &value).IsNotFound());
}

TEST(DBTest, SurvivesFlushAndReopen) {
  std::string dir = TestDir("reopen");
  WriteOptions wo;
  ReadOptions ro;
  {
    std::unique_ptr<DB> db;
    Options options;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put(wo, std::string("k").append(std::to_string(i)),
                          std::string("v").append(std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (int i = 500; i < 1000; i++) {  // these stay in the WAL/memtable
      ASSERT_TRUE(db->Put(wo, std::string("k").append(std::to_string(i)),
                          std::string("v").append(std::to_string(i)))
                      .ok());
    }
  }
  {
    std::unique_ptr<DB> db;
    Options options;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    for (int i = 0; i < 1000; i++) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
          << i;
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
}

TEST(DBTest, IteratorSeesSortedUserKeys) {
  std::string dir = TestDir("iter");
  std::unique_ptr<DB> db;
  Options options;
  options.write_buffer_size = 16 * 1024;  // force several flushes
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  WriteOptions wo;
  std::map<std::string, std::string> model;
  Random rnd(17);
  for (int i = 0; i < 3000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "%08llu",
             static_cast<unsigned long long>(rnd.Uniform(1000)));
    std::string value = std::string("v").append(std::to_string(i));
    model[key] = value;
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), k);
    EXPECT_EQ(iter->value().ToString(), v);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
}

TEST(DBTest, DeletesShadowAcrossFlushes) {
  std::string dir = TestDir("shadow");
  std::unique_ptr<DB> db;
  Options options;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "gone", "x").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Delete(wo, "gone").ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "gone", &value).IsNotFound());

  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->Seek("gone");
  EXPECT_FALSE(iter->Valid() && iter->key() == Slice("gone"));
}

TEST(DBTest, CompactionPreservesData) {
  std::string dir = TestDir("compact");
  std::unique_ptr<DB> db;
  Options options;
  options.write_buffer_size = 8 * 1024;
  options.max_file_bytes = 16 * 1024;
  options.base_level_bytes = 32 * 1024;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  WriteOptions wo;
  std::map<std::string, std::string> model;
  Random rnd(99);
  for (int i = 0; i < 5000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "%08llu",
             static_cast<unsigned long long>(rnd.Uniform(2000)));
    std::string value(50, static_cast<char>('a' + (i % 26)));
    model[key] = value;
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  // After full compaction L0 must be empty and data intact.
  DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.files_per_level[0], 0);
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

TEST(DBTest, ScanRangeWithPushdownFilter) {
  std::string dir = TestDir("scan");
  std::unique_ptr<DB> db;
  Options options;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "row%03d", i);
    ASSERT_TRUE(db->Put(wo, key, i % 2 == 0 ? "even" : "odd").ok());
  }

  struct EvenFilter : public ScanFilter {
    bool Matches(const Slice&, const Slice& value) const override {
      return value == Slice("even");
    }
  } filter;

  std::vector<std::pair<std::string, std::string>> out;
  ScanStats stats;
  ASSERT_TRUE(
      db->Scan(ReadOptions(), "row010", "row020", &filter, 0, &out, &stats)
          .ok());
  EXPECT_EQ(stats.scanned, 10u);
  EXPECT_EQ(stats.matched, 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].first, "row010");
  EXPECT_EQ(out[4].first, "row018");

  // Limit stops the scan early.
  out.clear();
  ScanStats s2;
  ASSERT_TRUE(db->Scan(ReadOptions(), "row000", "", &filter, 3, &out, &s2).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST(DBTest, ReopenAfterCompactionKeepsManifest) {
  std::string dir = TestDir("manifest");
  Options options;
  options.write_buffer_size = 8 * 1024;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    WriteOptions wo;
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db->Put(wo, "key" + std::to_string(i),
                          std::string(30, 'x'))
                      .ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 2000; i += 97) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
  }
}

TEST(DBTest, WriteBatchIsAtomicInOrder) {
  std::string dir = TestDir("batch");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Delete("x");
  batch.Put("x", "3");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "x", &value).ok());
  EXPECT_EQ(value, "3");
}

TEST(DBTest, BlockCacheServesRepeatedReads) {
  std::string dir = TestDir("cache");
  std::unique_ptr<DB> db;
  Options options;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(wo, "ck" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 1000; i += 100) {
      ASSERT_TRUE(db->Get(ReadOptions(), "ck" + std::to_string(i), &value).ok());
    }
  }
  DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.block_cache_hits, 0u);
}

// Property-style sweep: random workloads against an in-memory model.
class DBFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DBFuzzTest, MatchesModelUnderRandomOps) {
  const int seed = GetParam();
  std::string dir = TestDir("fuzz" + std::to_string(seed));
  std::unique_ptr<DB> db;
  Options options;
  options.write_buffer_size = 4 * 1024;
  options.max_file_bytes = 8 * 1024;
  options.base_level_bytes = 16 * 1024;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  std::map<std::string, std::string> model;
  Random rnd(seed);
  WriteOptions wo;
  for (int op = 0; op < 4000; op++) {
    std::string key = "fz" + std::to_string(rnd.Uniform(300));
    switch (rnd.Uniform(3)) {
      case 0:
      case 1: {
        std::string value = "val" + std::to_string(rnd.Next() % 100000);
        model[key] = value;
        ASSERT_TRUE(db->Put(wo, key, value).ok());
        break;
      }
      case 2:
        model.erase(key);
        ASSERT_TRUE(db->Delete(wo, key).ok());
        break;
    }
  }

  // Point lookups match the model.
  for (int i = 0; i < 300; i++) {
    std::string key = "fz" + std::to_string(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      EXPECT_EQ(value, it->second);
    }
  }

  // Full iteration matches the model.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), k);
    EXPECT_EQ(iter->value().ToString(), v);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DBFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tman::kv
