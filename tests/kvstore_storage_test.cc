#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/coding.h"
#include "core/ttl_filter.h"
#include "kvstore/compaction_filter.h"
#include "kvstore/db.h"
#include "kvstore/env.h"
#include "kvstore/scan_filter.h"
#include "kvstore/sst_file_writer.h"
#include "kvstore/table.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string RowKey(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "row%08d", i);
  return buf;
}

std::string RowValue(int i) {
  return "rec-" + std::to_string(i) + "-" + std::string(40, 'a' + i % 26);
}

// ---------------------------------------------------------------------------
// Table format

// Writes `n` rows, flushes them into one table and closes the DB; returns
// that table's path ("" unless exactly one exists).
std::string WriteOneTable(const std::string& dir, int n) {
  {
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(Options(), dir, &db).ok());
    for (int i = 0; i < n; i++) {
      EXPECT_TRUE(db->Put(WriteOptions(), RowKey(i), RowValue(i)).ok());
    }
    EXPECT_TRUE(db->Flush().ok());
  }
  std::vector<std::string> tables;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".sst") tables.push_back(e.path().string());
  }
  return tables.size() == 1 ? tables[0] : "";
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void OverwriteBytes(const std::string& path, uint64_t offset,
                    const std::string& bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(StorageFormatTest, RetiredV1MagicIsCorruption) {
  const std::string dir = TestDir("v1_magic");
  const std::string sst = WriteOneTable(dir, 500);
  ASSERT_FALSE(sst.empty());
  // The footer ends in the fixed64 magic; "trajman!" named format v1.
  const uint64_t size = std::filesystem::file_size(sst);
  std::string magic;
  PutFixed64(&magic, 0x7472616a6d616e21ULL);
  OverwriteBytes(sst, size - magic.size(), magic);

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(sst, &file).ok());
  std::unique_ptr<Table> table;
  Status s = Table::Open(1, std::move(file), size, nullptr, &table);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(table, nullptr);

  std::unique_ptr<DB> db;
  s = DB::Open(Options(), dir, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

class DiscardSink : public RowSink {
 public:
  bool Accept(const Slice&, const Slice&) override { return true; }
};

TEST(StorageFormatTest, UnknownBlockTypeByteIsCorruption) {
  const std::string dir = TestDir("type_byte");
  constexpr int kRows = 3000;
  const std::string sst = WriteOneTable(dir, kRows);
  ASSERT_FALSE(sst.empty());
  // The footer opens with the filter handle, and the filter block starts
  // right after the last data block's trailer, so that block's type byte
  // sits kBlockTrailerSize bytes before the filter offset. The crc covers
  // only the payload: the type check alone must catch this rewrite.
  const std::string contents = ReadFile(sst);
  Slice footer(contents.data() + contents.size() - 48, 48);
  uint64_t filter_offset = 0;
  ASSERT_TRUE(GetVarint64(&footer, &filter_offset));
  const uint64_t type_offset = filter_offset - kBlockTrailerSize;
  ASSERT_EQ(contents[type_offset], '\0');  // every block is written raw

  // 0x01 is the retired byte-LZ block type; no reader accepts it.
  for (const char type : {'\x01', '\x02'}) {
    SCOPED_TRACE(static_cast<int>(type));
    OverwriteBytes(sst, type_offset, std::string(1, type));

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
    std::string value;
    Status s = db->Get(ReadOptions(), RowKey(kRows - 1), &value);  // last block
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();

    const std::string lo = RowKey(0);
    DiscardSink sink;
    s = db->MultiScan(ReadOptions(), {ScanWindow{lo, ""}}, nullptr, 0, &sink,
                      nullptr);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();

    DB::IntegrityReport report;
    s = db->VerifyIntegrity(&report);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(report.files_corrupt, 1u);
  }
}

TEST(StorageFormatTest, VerifyIntegrityCatchesCorruption) {
  const std::string dir = TestDir("corrupt");
  Options options;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), RowKey(i), RowValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Flip one byte in the middle of the table body.
  std::string sst;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".sst") sst = e.path().string();
  }
  ASSERT_FALSE(sst.empty());
  {
    std::fstream f(sst, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(128);
    char b;
    f.seekg(128);
    f.get(b);
    f.seekp(128);
    f.put(static_cast<char>(b ^ 0x5a));
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  DB::IntegrityReport report;
  Status s = db->VerifyIntegrity(&report);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// ---------------------------------------------------------------------------
// SstFileWriter + IngestExternalFile

TEST(SstFileWriterTest, EnforcesOrderAndNonEmpty) {
  const std::string dir = TestDir("writer");
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir).ok());
  Options options;
  {
    SstFileWriter writer(options);
    ASSERT_TRUE(writer.Open(dir + "/empty.sst").ok());
    ExternalSstFileInfo info;
    EXPECT_TRUE(writer.Finish(&info).IsInvalidArgument());
  }
  SstFileWriter writer(options);
  ASSERT_TRUE(writer.Open(dir + "/order.sst").ok());
  ASSERT_TRUE(writer.Put("b", "1").ok());
  EXPECT_TRUE(writer.Put("a", "0").IsInvalidArgument());  // out of order
  EXPECT_TRUE(writer.Put("b", "2").IsInvalidArgument());  // duplicate
  ASSERT_TRUE(writer.Put("c", "2").ok());
  ExternalSstFileInfo info;
  ASSERT_TRUE(writer.Finish(&info).ok());
  EXPECT_EQ(info.num_entries, 2u);
  EXPECT_EQ(info.smallest_user_key, "b");
  EXPECT_EQ(info.largest_user_key, "c");
  EXPECT_GT(info.file_size, 0u);
}

TEST(IngestTest, IngestedFileIsVisibleAndDurable) {
  const std::string dir = TestDir("ingest");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  const std::string ext = dir + "/bulk-0.tmp";
  SstFileWriter writer(options);
  ASSERT_TRUE(writer.Open(ext).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(writer.Put(RowKey(i), RowValue(i)).ok());
  }
  ExternalSstFileInfo info;
  ASSERT_TRUE(writer.Finish(&info).ok());

  DB::IngestOptions io;
  io.move_file = true;
  ASSERT_TRUE(db->IngestExternalFile(io, ext).ok());
  EXPECT_FALSE(Env::Default()->FileExists(ext));  // moved, not copied

  DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.files_ingested, 1u);
  EXPECT_EQ(stats.rows_ingested, 3000u);

  for (int i = 0; i < 3000; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), RowKey(i), &value).ok());
    ASSERT_EQ(value, RowValue(i));
  }
  db.reset();

  // Survives reopen: the install was committed through the MANIFEST.
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), RowKey(1234), &value).ok());
  EXPECT_EQ(value, RowValue(1234));
  DB::IntegrityReport report;
  ASSERT_TRUE(db->VerifyIntegrity(&report).ok());
}

TEST(IngestTest, OverlappingRangeIsRejected) {
  const std::string dir = TestDir("overlap");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), RowKey(500), "live").ok());
  ASSERT_TRUE(db->Flush().ok());

  const std::string ext = dir + "/bulk-1.tmp";
  SstFileWriter writer(options);
  ASSERT_TRUE(writer.Open(ext).ok());
  for (int i = 400; i < 600; i++) {
    ASSERT_TRUE(writer.Put(RowKey(i), RowValue(i)).ok());
  }
  ExternalSstFileInfo info;
  ASSERT_TRUE(writer.Finish(&info).ok());

  DB::IngestOptions io;
  Status s = db->IngestExternalFile(io, ext);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_TRUE(s.IsOverlap()) << s.ToString();
  // The live row must win and the store must stay consistent.
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), RowKey(500), &value).ok());
  EXPECT_EQ(value, "live");

  // A disjoint file still ingests (copy mode keeps the source).
  const std::string ext2 = dir + "/bulk-2.tmp";
  SstFileWriter writer2(options);
  ASSERT_TRUE(writer2.Open(ext2).ok());
  for (int i = 600; i < 700; i++) {
    ASSERT_TRUE(writer2.Put(RowKey(i), RowValue(i)).ok());
  }
  ASSERT_TRUE(writer2.Finish(&info).ok());
  ASSERT_TRUE(db->IngestExternalFile(io, ext2).ok());
  EXPECT_TRUE(Env::Default()->FileExists(ext2));  // copy, source kept
  ASSERT_TRUE(db->Get(ReadOptions(), RowKey(650), &value).ok());
}

TEST(IngestTest, RejectsFilesNotBuiltBySstFileWriter) {
  const std::string dir = TestDir("badfile");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  const std::string ext = dir + "/bulk-3.tmp";
  {
    std::ofstream f(ext, std::ios::binary);
    f << "this is not an sstable";
  }
  DB::IngestOptions io;
  Status s = db->IngestExternalFile(io, ext);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsOverlap());
}

// ---------------------------------------------------------------------------
// Compaction filter

// Drops every row whose value is the literal "expired".
class ValueFilter : public CompactionFilter {
 public:
  const char* Name() const override { return "test.value"; }
  bool ShouldDrop(int, const Slice&, const Slice& value) const override {
    return value == Slice("expired");
  }
};

TEST(CompactionFilterTest, ExpiredRowsAreDroppedAndCounted) {
  const std::string dir = TestDir("filter");
  ValueFilter filter;
  Options options;
  options.compaction_filter = &filter;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 1000; i++) {
    const bool expired = i % 3 == 0;
    ASSERT_TRUE(db->Put(WriteOptions(), RowKey(i),
                        expired ? "expired" : "live")
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  for (int i = 0; i < 1000; i++) {
    std::string value;
    Status s = db->Get(ReadOptions(), RowKey(i), &value);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << RowKey(i);
    } else {
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(value, "live");
    }
  }
  DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.compaction_filter_dropped +
                stats.compaction_filter_tombstoned,
            0u);

  // After full compaction to the bottom, survivors stay and the dropped
  // rows stay gone across reopen.
  db.reset();
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), RowKey(0), &value).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), RowKey(1), &value).ok());
}

TEST(CompactionFilterTest, NewestVersionWinsOverFilter) {
  // A newer live version of a key must shadow an older expired one: the
  // filter is consulted only on the newest surviving version.
  const std::string dir = TestDir("filter_ver");
  ValueFilter filter;
  Options options;
  options.compaction_filter = &filter;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "expired").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "live-again").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "live-again");
}

// ---------------------------------------------------------------------------
// TTL filter (core)

TEST(TtlFilterTest, ExpiresOnlyDecodableOldRecords) {
  const int64_t now = 1700000000;
  core::TtlCompactionFilter ttl(3600, [now] { return now; });
  // Undecodable values (e.g. secondary index rows holding primary-key
  // strings) are never dropped.
  EXPECT_FALSE(ttl.ShouldDrop(1, Slice("k"), Slice("primary-key-string")));
  EXPECT_FALSE(ttl.ShouldDrop(1, Slice("k"), Slice()));
  EXPECT_EQ(ttl.expired(), 0u);
  // Disabled filter never drops.
  core::TtlCompactionFilter off(0, [now] { return now; });
  EXPECT_FALSE(off.ShouldDrop(1, Slice("k"), Slice("anything")));
}

// ---------------------------------------------------------------------------
// Cluster bulk load

TEST(ClusterBulkLoadTest, LoadsAcrossRegionsAndReadsBack) {
  cluster::Cluster cl(TestDir("bulkload"), 3, Options());
  ASSERT_TRUE(cl.CreateTable("t", 4).ok());
  cluster::ClusterTable* table = cl.GetTable("t");

  std::vector<cluster::Row> rows;
  for (int shard = 0; shard < 4; shard++) {
    for (int i = 0; i < 500; i++) {
      cluster::Row row;
      row.key.push_back(static_cast<char>(shard));
      row.key += RowKey(i);
      row.value = RowValue(i);
      rows.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(table->BulkLoad(rows).ok());
  for (const cluster::Row& row : rows) {
    std::string value;
    ASSERT_TRUE(table->Get(row.key, &value).ok());
    ASSERT_EQ(value, row.value);
  }
  // Ingestion accounting reached the region stores.
  DB::Stats stats = table->GetStorageStats();
  EXPECT_EQ(stats.files_ingested, 4u);
  EXPECT_EQ(stats.rows_ingested, rows.size());

  // A second load over the same keys succeeds, as a BatchPut of the same
  // rows would: every region holds rows in its range, so the rows go in as
  // write batches, no file is ingested, and each key reads the later value.
  std::vector<cluster::Row> later = rows;
  for (cluster::Row& row : later) row.value += "-later";
  ASSERT_TRUE(table->BulkLoad(later).ok());
  for (const cluster::Row& row : later) {
    std::string value;
    ASSERT_TRUE(table->Get(row.key, &value).ok());
    ASSERT_EQ(value, row.value);
  }
  EXPECT_EQ(table->GetStorageStats().files_ingested, 4u);
  // A disjoint load still ingests one file per region.
  std::vector<cluster::Row> more;
  for (int shard = 0; shard < 4; shard++) {
    for (int i = 500; i < 600; i++) {
      cluster::Row row;
      row.key.push_back(static_cast<char>(shard));
      row.key += RowKey(i);
      row.value = RowValue(i);
      more.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(table->BulkLoad(more).ok());
  EXPECT_EQ(table->GetStorageStats().files_ingested, 8u);
}

// A store refuses the file when anything it holds overlaps the load's key
// range, even with no live row there: a tombstone, or a file that spans
// the range. Those regions take their rows as write batches, and a key the
// call repeats keeps its last row.
TEST(ClusterBulkLoadTest, RefusedIngestFallsBackToWriteBatch) {
  cluster::Cluster cl(TestDir("bulkload_refused"), 3, Options());
  ASSERT_TRUE(cl.CreateTable("t", 2).ok());
  cluster::ClusterTable* table = cl.GetTable("t");
  auto key = [](int shard, int i) {
    std::string key(1, static_cast<char>(shard));
    key += RowKey(i);
    return key;
  };
  // Region 0 holds a tombstone at row 50; region 1 holds rows 0 and 999.
  ASSERT_TRUE(table->Put(key(0, 50), "old").ok());
  ASSERT_TRUE(table->Delete(key(0, 50)).ok());
  ASSERT_TRUE(table->Put(key(1, 0), "edge").ok());
  ASSERT_TRUE(table->Put(key(1, 999), "edge").ok());
  ASSERT_TRUE(table->Flush().ok());

  std::vector<cluster::Row> rows;
  for (int shard = 0; shard < 2; shard++) {
    for (int i = 1; i < 100; i++) {
      rows.push_back(cluster::Row{key(shard, i), RowValue(i)});
    }
  }
  rows.push_back(cluster::Row{key(0, 7), "repeated"});
  ASSERT_TRUE(table->BulkLoad(rows).ok());
  EXPECT_EQ(table->GetStorageStats().files_ingested, 0u);
  for (int shard = 0; shard < 2; shard++) {
    for (int i = 1; i < 100; i++) {
      std::string value;
      ASSERT_TRUE(table->Get(key(shard, i), &value).ok());
      EXPECT_EQ(value, shard == 0 && i == 7 ? "repeated" : RowValue(i));
    }
  }
  std::vector<cluster::Row> all;
  cluster::CollectRowsSink sink(&all);
  ASSERT_TRUE(
      table->MultiScan({cluster::KeyRange{"", ""}}, nullptr, 0, &sink, nullptr)
          .ok());
  EXPECT_EQ(all.size(), 2u * 99 + 2);
}

}  // namespace
}  // namespace tman::kv
