// Fault-injection and crash-recovery harness.
//
// Unlike the other test binaries this one links gtest without gtest_main:
// its main() accepts --seed=N (also used by CI to run extra seeds under the
// sanitizers), which offsets the per-iteration seeds of the randomized
// crash-recovery test so different CI legs explore different fault
// schedules while any single run stays exactly reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/retry.h"
#include "core/tman.h"
#include "kvstore/db.h"
#include "kvstore/fault_env.h"
#include "kvstore/filename.h"
#include "kvstore/log.h"
#include "kvstore/compaction_filter.h"
#include "kvstore/sst_file_writer.h"
#include "kvstore/write_batch.h"
#include "traj/generator.h"

namespace tman::kv {
namespace {

// Seed base, shifted by --seed on the command line (see main below).
uint64_t g_seed_base = 20260806;

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

std::string Value(int i) { return "value-" + std::to_string(i); }

// ---------------------------------------------------------------------------
// LogReader end-of-log classification (satellite: recovery must know WHY the
// log ended, not just that it did).

// Writes `payloads` as consecutive records into `path`.
void WriteLog(const std::string& path, const std::vector<std::string>& payloads) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &file).ok());
  LogWriter writer(std::move(file));
  for (const auto& p : payloads) {
    ASSERT_TRUE(writer.AddRecord(p).ok());
  }
  ASSERT_TRUE(writer.file()->Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
}

// Reads records until the log ends; returns the payloads seen.
std::vector<std::string> DrainLog(LogReader* reader) {
  std::vector<std::string> out;
  Slice record;
  std::string scratch;
  while (reader->ReadRecord(&record, &scratch)) {
    out.push_back(record.ToString());
  }
  return out;
}

TEST(LogReaderEndTest, CleanEof) {
  const std::string dir = TestDir("log_eof");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  WriteLog(path, {"alpha", "beta", "gamma"});

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_EQ(DrainLog(&reader).size(), 3u);
  EXPECT_EQ(reader.end(), LogReader::End::kEof);
  EXPECT_EQ(reader.records_read(), 3u);
  EXPECT_EQ(reader.bytes_consumed(), std::filesystem::file_size(path));
}

TEST(LogReaderEndTest, TornTailTruncatedPayload) {
  const std::string dir = TestDir("log_torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  WriteLog(path, {"alpha", "beta", "gamma"});
  // Cut into the last record's payload: a crash mid-append.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_EQ(DrainLog(&reader).size(), 2u);
  EXPECT_EQ(reader.end(), LogReader::End::kTornTail);
}

TEST(LogReaderEndTest, TornTailTruncatedHeader) {
  const std::string dir = TestDir("log_torn_hdr");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  WriteLog(path, {"alpha", "beta"});
  // Leave 3 bytes of the second record's 8-byte header.
  std::filesystem::resize_file(path, 8 + 5 + 3);

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_EQ(DrainLog(&reader).size(), 1u);
  EXPECT_EQ(reader.end(), LogReader::End::kTornTail);
  EXPECT_EQ(reader.bytes_consumed(), 8u + 5u);
}

TEST(LogReaderEndTest, BadCrcMidLogIsBadRecord) {
  const std::string dir = TestDir("log_crc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  WriteLog(path, {"alpha", "beta", "gamma"});
  {
    // Flip one payload byte of the middle record (offset: rec1 + header).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8 + 5 + 8 + 1);
    char c = 'X';
    f.write(&c, 1);
  }

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_EQ(DrainLog(&reader).size(), 1u);
  EXPECT_EQ(reader.end(), LogReader::End::kBadRecord);
}

TEST(LogReaderEndTest, ImplausibleLengthIsBadRecord) {
  const std::string dir = TestDir("log_len");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  // Hand-build a header claiming a 2 GiB payload.
  std::string raw;
  PutFixed32(&raw, 0xdeadbeef);             // crc (never checked: length wins)
  PutFixed32(&raw, 2u * 1024 * 1024 * 1024);  // implausible length
  raw += "junk";
  std::ofstream(path, std::ios::binary) << raw;

  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_TRUE(DrainLog(&reader).empty());
  EXPECT_EQ(reader.end(), LogReader::End::kBadRecord);
}

TEST(LogReaderEndTest, ReadErrorIsReported) {
  const std::string dir = TestDir("log_readerr");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/test.log";
  WriteLog(path, {"alpha"});

  FaultInjectionEnv fenv(Env::Default());
  fenv.FailReads("test.log", -1);
  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(fenv.NewSequentialFile(path, &file).ok());
  LogReader reader(std::move(file));
  EXPECT_TRUE(DrainLog(&reader).empty());
  EXPECT_EQ(reader.end(), LogReader::End::kReadError);
  EXPECT_FALSE(reader.status().ok());
}

// ---------------------------------------------------------------------------
// WAL recovery: torn tail vs mid-log corruption.

// Opens (and closes) an empty DB at `dir`, then rewrites its (empty) WAL
// with `batches`. Returns the WAL path.
std::string CraftWal(const std::string& dir,
                     const std::vector<WriteBatch>& batches) {
  {
    std::unique_ptr<DB> db;
    Options options;
    EXPECT_TRUE(DB::Open(options, dir, &db).ok());
  }
  std::string wal_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".wal") wal_path = entry.path().string();
  }
  EXPECT_FALSE(wal_path.empty());
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(Env::Default()->NewWritableFile(wal_path, &file).ok());
  LogWriter writer(std::move(file));
  for (const auto& b : batches) {
    EXPECT_TRUE(writer.AddRecord(b.rep()).ok());
  }
  EXPECT_TRUE(writer.file()->Sync().ok());
  EXPECT_TRUE(writer.Close().ok());
  return wal_path;
}

std::vector<WriteBatch> ThreeBatches() {
  std::vector<WriteBatch> batches(3);
  for (int i = 0; i < 3; i++) {
    batches[i].Put(Key(i), Value(i));
    batches[i].SetSequence(static_cast<uint64_t>(i) + 1);
  }
  return batches;
}

TEST(WalRecoveryTest, TornTailToleratedInBothModes) {
  for (bool paranoid : {false, true}) {
    const std::string dir =
        TestDir(paranoid ? "wal_torn_paranoid" : "wal_torn");
    const std::string wal = CraftWal(dir, ThreeBatches());
    // Truncate into the third record's payload.
    std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 2);

    Options options;
    options.paranoid_checks = paranoid;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok()) << "paranoid=" << paranoid;
    std::string value;
    EXPECT_TRUE(db->Get(ReadOptions(), Key(0), &value).ok());
    EXPECT_TRUE(db->Get(ReadOptions(), Key(1), &value).ok());
    EXPECT_TRUE(db->Get(ReadOptions(), Key(2), &value).IsNotFound());
    DB::Stats stats = db->GetStats();
    EXPECT_EQ(stats.wal_torn_tails, 1u);
    EXPECT_EQ(stats.wal_records_recovered, 2u);
    EXPECT_GT(stats.wal_bytes_dropped, 0u);
  }
}

TEST(WalRecoveryTest, MidLogCorruptionParanoidRefuses) {
  const std::string dir = TestDir("wal_midlog_paranoid");
  const std::string wal = CraftWal(dir, ThreeBatches());
  {
    // Flip a payload byte of the SECOND record: corruption mid-log, with a
    // valid record after it.
    std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
    uint64_t rec1 = 8 + ThreeBatches()[0].rep().size();
    f.seekp(static_cast<std::streamoff>(rec1 + 8 + 3));
    char c = 0x7f;
    f.write(&c, 1);
  }
  Options options;
  options.paranoid_checks = true;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dir, &db);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WalRecoveryTest, MidLogCorruptionDefaultDropsTailAndCounts) {
  const std::string dir = TestDir("wal_midlog_default");
  const std::string wal = CraftWal(dir, ThreeBatches());
  {
    std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
    uint64_t rec1 = 8 + ThreeBatches()[0].rep().size();
    f.seekp(static_cast<std::streamoff>(rec1 + 8 + 3));
    char c = 0x7f;
    f.write(&c, 1);
  }
  Options options;  // paranoid_checks = false
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), Key(0), &value).ok());
  // Everything at and after the corrupt record is dropped (consistent
  // prefix), and the drop is accounted.
  EXPECT_TRUE(db->Get(ReadOptions(), Key(1), &value).IsNotFound());
  EXPECT_TRUE(db->Get(ReadOptions(), Key(2), &value).IsNotFound());
  DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.wal_records_recovered, 1u);
  EXPECT_GT(stats.wal_bytes_dropped, 0u);
}

// ---------------------------------------------------------------------------
// MANIFEST recovery edge cases (satellite c): a damaged directory must
// surface Corruption from Open — never crash, never silently open empty.

TEST(ManifestRecoveryTest, TruncatedManifestIsCorruption) {
  const std::string dir = TestDir("manifest_trunc");
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), Key(1), Value(1)).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  std::filesystem::resize_file(ManifestFileName(dir), 3);
  std::unique_ptr<DB> db;
  Status s = DB::Open(Options(), dir, &db);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ManifestRecoveryTest, BadLevelCountIsCorruption) {
  const std::string dir = TestDir("manifest_levels");
  std::filesystem::create_directories(dir);
  // A structurally valid record (good CRC) with an absurd level count.
  std::string record;
  PutVarint64(&record, 10);  // next_file
  PutVarint64(&record, 0);   // last_sequence
  PutVarint64(&record, 0);   // wal_number
  PutVarint32(&record, 4096);  // num_levels: implausible
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      Env::Default()->NewWritableFile(ManifestFileName(dir), &file).ok());
  LogWriter writer(std::move(file));
  ASSERT_TRUE(writer.AddRecord(record).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::unique_ptr<DB> db;
  Status s = DB::Open(Options(), dir, &db);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("level count"), std::string::npos);
}

TEST(ManifestRecoveryTest, TableBelowTheLastLevelIsCorruption) {
  const std::string dir = TestDir("manifest_deep_level");
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), Key(1), Value(1)).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") sst = entry.path().string();
  }
  ASSERT_FALSE(sst.empty());
  uint64_t number = 0;
  std::string suffix;
  ASSERT_TRUE(ParseFileName(std::filesystem::path(sst).filename().string(),
                            &number, &suffix));

  // A valid-CRC record that lists the live table one level below the
  // tree's last level (L7 of 8): opening must not drop it silently.
  std::string key;
  AppendInternalKey(&key, Key(1), 1, kTypeValue);
  std::string record;
  PutVarint64(&record, number + 10);  // next_file
  PutVarint64(&record, 1);            // last_sequence
  PutVarint64(&record, 0);            // wal_number
  PutVarint32(&record, 8);            // num_levels
  for (int level = 0; level < 7; level++) PutVarint32(&record, 0);
  PutVarint32(&record, 1);
  PutVarint64(&record, number);
  PutVarint64(&record, std::filesystem::file_size(sst));
  PutLengthPrefixedSlice(&record, key);
  PutLengthPrefixedSlice(&record, key);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      Env::Default()->NewWritableFile(ManifestFileName(dir), &file).ok());
  LogWriter writer(std::move(file));
  ASSERT_TRUE(writer.AddRecord(record).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::unique_ptr<DB> db;
  Status s = DB::Open(Options(), dir, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(std::filesystem::exists(sst));
}

TEST(ManifestRecoveryTest, MissingReferencedTableIsCorruption) {
  const std::string dir = TestDir("manifest_missing_sst");
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  // Remove the table the MANIFEST references.
  bool removed = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") {
      std::filesystem::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  std::unique_ptr<DB> db;
  Status s = DB::Open(Options(), dir, &db);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("missing table file"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SSTable integrity verification.

TEST(VerifyIntegrityTest, CleanStorePassesAndCountsBlocks) {
  const std::string dir = TestDir("verify_clean");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  DB::IntegrityReport report;
  ASSERT_TRUE(db->VerifyIntegrity(&report).ok());
  EXPECT_GE(report.files_checked, 1u);
  EXPECT_GE(report.blocks_checked, 1u);
  EXPECT_EQ(report.files_corrupt, 0u);
}

TEST(VerifyIntegrityTest, DetectsOnDiskBitFlip) {
  const std::string dir = TestDir("verify_flip");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Options(), dir, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // Flip a byte inside the first data block of the (open) SSTable. The
  // verifier bypasses the block cache, so the damage is visible.
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") sst = entry.path().string();
  }
  ASSERT_FALSE(sst.empty());
  {
    std::fstream f(sst, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(17);
    char c = 0x55;
    f.write(&c, 1);
  }
  DB::IntegrityReport report;
  Status s = db->VerifyIntegrity(&report);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(report.files_corrupt, 1u);
}

// ---------------------------------------------------------------------------
// ENOSPC during flush -> Resume() restores service (tentpole headline #2).

TEST(ResumeTest, EnospcDuringFlushThenResume) {
  const std::string dir = TestDir("resume_enospc");
  FaultInjectionEnv fenv(Env::Default(), g_seed_base);
  Options options;
  options.env = &fenv;
  options.write_buffer_size = 4 * 1024;  // freeze early
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  // Every SSTable build hits ENOSPC: the background flush fails and the
  // error sticks.
  fenv.NoSpaceAppends(".sst", -1);
  int acked = 0;
  Status s;
  for (int i = 0; i < 20000; i++) {
    s = db->Put(WriteOptions(), Key(i), Value(i));
    if (!s.ok()) break;
    acked++;
  }
  ASSERT_FALSE(s.ok()) << "writes never hit the sticky flush error";
  EXPECT_NE(s.ToString().find("No space left"), std::string::npos)
      << s.ToString();

  // "Disk space freed": the same flush now succeeds and service resumes.
  fenv.ClearFaults();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_EQ(db->GetStats().resume_count, 1u);

  // Every acknowledged write survived the outage.
  for (int i = 0; i < acked; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(value, Value(i));
  }
  ASSERT_TRUE(db->Put(WriteOptions(), Key(acked), Value(acked)).ok());
  ASSERT_TRUE(db->Flush().ok());

  // Resume() on a healthy store is a no-op that reports OK.
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_EQ(db->GetStats().resume_count, 1u);
}

TEST(ResumeTest, CorruptionIsNotResumable) {
  const std::string dir = TestDir("resume_corrupt");
  FaultInjectionEnv fenv(Env::Default(), g_seed_base);
  Options options;
  options.env = &fenv;
  options.write_buffer_size = 4 * 1024;
  options.l0_compaction_trigger = 1;  // compact (and so read) eagerly
  options.block_cache_bytes = 512;    // force disk reads
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // A compaction read that returns corrupt data must stick as Corruption,
  // and Resume() must refuse to clear it.
  fenv.CorruptReads(".sst", -1);
  Status s = db->CompactAll();
  if (s.ok()) {
    // Nothing to compact at this shape; force a reopen-time corruption
    // instead via VerifyIntegrity to keep the invariant covered.
    DB::IntegrityReport report;
    s = db->VerifyIntegrity(&report);
  }
  ASSERT_FALSE(s.ok());
  fenv.ClearFaults();
}

// ---------------------------------------------------------------------------
// Randomized crash-recovery harness (tentpole headline #1).
//
// Each iteration: seeded write workload with a mix of sync and async
// acknowledged writes (and occasional explicit flushes), a simulated power
// loss at a random point (un-synced bytes dropped, possibly leaving a torn
// WAL tail), reopen with paranoid checks on, then verify the durability
// contract:
//
//   1. every write acknowledged with sync=true is present;
//   2. the surviving writes form a contiguous PREFIX of the issued
//      sequence (no holes: a lost write implies everything after it is
//      lost too);
//   3. no spurious keys exist;
//   4. the reopened store passes VerifyIntegrity and accepts writes.
//
// CI runs this with 100 iterations per seed (kCrashIterations), and the
// sanitizer legs repeat it under --seed=1/2/3.

constexpr int kCrashIterations = 100;

TEST(CrashRecoveryTest, RandomizedCrashesKeepDurabilityContract) {
  const std::string base = TestDir("crash_harness");
  std::filesystem::create_directories(base);

  for (int iter = 0; iter < kCrashIterations; iter++) {
    SCOPED_TRACE("iteration " + std::to_string(iter) + " seed base " +
                 std::to_string(g_seed_base));
    const uint64_t seed = g_seed_base * 1000 + static_cast<uint64_t>(iter);
    Random rng(seed);
    const std::string dir = base + "/iter" + std::to_string(iter);
    std::filesystem::remove_all(dir);

    FaultInjectionEnv fenv(Env::Default(), seed);
    Options options;
    options.env = &fenv;
    options.paranoid_checks = true;
    options.write_buffer_size = 2 * 1024;  // rotate WALs often
    options.block_cache_bytes = 4 * 1024;

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());

    const int num_ops = 30 + static_cast<int>(rng.Uniform(120));
    const int crash_at = static_cast<int>(rng.Uniform(num_ops + 1));
    int last_synced = -1;  // highest index acknowledged with sync=true
    int issued = 0;
    for (int i = 0; i < num_ops; i++) {
      if (i == crash_at) {
        fenv.Crash();
        break;
      }
      WriteOptions wo;
      wo.sync = rng.Bernoulli(0.3);
      Status s = db->Put(wo, Key(i), Value(i));
      ASSERT_TRUE(s.ok()) << "pre-crash write failed: " << s.ToString();
      issued = i + 1;
      if (wo.sync) last_synced = i;
      if (rng.Bernoulli(0.05)) {
        ASSERT_TRUE(db->Flush().ok());
        last_synced = i;  // flush persists everything written so far
      }
    }
    if (!fenv.crashed()) fenv.Crash();

    // Power loss: the process dies (destructor I/O fails harmlessly), then
    // the disk keeps only what was synced, plus a torn tail.
    db.reset();
    ASSERT_TRUE(fenv.DropUnsyncedAndReset().ok());

    // Reopen must succeed even in paranoid mode: crashes tear tails, they
    // do not corrupt the middle of logs.
    Status open_s = DB::Open(options, dir, &db);
    ASSERT_TRUE(open_s.ok()) << open_s.ToString();

    // Durability contract.
    int present_prefix = 0;
    bool in_prefix = true;
    for (int i = 0; i < issued; i++) {
      std::string value;
      Status s = db->Get(ReadOptions(), Key(i), &value);
      if (s.ok()) {
        ASSERT_TRUE(in_prefix) << "hole before surviving key " << Key(i);
        EXPECT_EQ(value, Value(i));
        present_prefix = i + 1;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << s.ToString();
        in_prefix = false;
      }
    }
    EXPECT_GT(present_prefix, last_synced)
        << "a sync-acknowledged write was lost";

    // No spurious keys: the store holds exactly the surviving prefix.
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(count, present_prefix);

    // The survivor is a fully serviceable store.
    DB::IntegrityReport report;
    ASSERT_TRUE(db->VerifyIntegrity(&report).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), Key(issued), Value(issued)).ok());
    ASSERT_TRUE(db->Flush().ok());
    db.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST(CrashRecoveryTest, CrashMidBulkIngestLeavesConsistentVersion) {
  const std::string dir = TestDir("crash_ingest");
  FaultInjectionEnv fenv(Env::Default(), g_seed_base);
  Options options;
  options.env = &fenv;
  options.paranoid_checks = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());  // durable baseline

  // Build the external file (disjoint range), fully synced by Finish.
  const std::string ext = dir + "/bulk-7.tmp";
  {
    SstFileWriter writer(options);
    ASSERT_TRUE(writer.Open(ext).ok());
    for (int i = 1000; i < 1100; i++) {
      ASSERT_TRUE(writer.Put(Key(i), Value(i)).ok());
    }
    ExternalSstFileInfo info;
    ASSERT_TRUE(writer.Finish(&info).ok());
  }

  // Power loss strikes before the ingest can copy + install the file: the
  // ingest fails, the un-installed temp stays behind on disk.
  fenv.Crash();
  DB::IngestOptions io;
  EXPECT_FALSE(db->IngestExternalFile(io, ext).ok());
  db.reset();
  ASSERT_TRUE(fenv.DropUnsyncedAndReset().ok());

  // Model the worst torn install: the copy reached its final numbered name
  // (and even a number ABOVE the persisted next-file counter) but the
  // MANIFEST commit never happened.
  const std::string orphan = TableFileName(dir, 424242);
  std::filesystem::copy_file(ext, orphan);
  ASSERT_TRUE(fenv.FileExists(ext));
  ASSERT_TRUE(fenv.FileExists(orphan));

  // Reopen: the version must be exactly the pre-ingest state, the temp
  // swept, and the orphan numbered file collected (EnsureFileNumberFloor
  // pushes the GC horizon above it, so it can never collide with a future
  // allocation either).
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  EXPECT_FALSE(fenv.FileExists(ext)) << "leftover bulk temp not swept";
  EXPECT_FALSE(fenv.FileExists(orphan)) << "orphan ingest copy not GC-ed";
  for (int i = 0; i < 50; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok());
    EXPECT_EQ(value, Value(i));
  }
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), Key(1000), &value).IsNotFound());
  DB::IntegrityReport report;
  ASSERT_TRUE(db->VerifyIntegrity(&report).ok());

  // The store keeps working: a retried bulk build + ingest now succeeds
  // and survives a clean reopen.
  {
    SstFileWriter writer(options);
    ASSERT_TRUE(writer.Open(ext).ok());
    for (int i = 1000; i < 1100; i++) {
      ASSERT_TRUE(writer.Put(Key(i), Value(i)).ok());
    }
    ExternalSstFileInfo info;
    ASSERT_TRUE(writer.Finish(&info).ok());
  }
  io.move_file = true;
  ASSERT_TRUE(db->IngestExternalFile(io, ext).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), Key(1050), &value).ok());
  db.reset();
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), Key(1050), &value).ok());
  EXPECT_EQ(value, Value(1050));
}

TEST(CrashRecoveryTest, RandomizedCrashesWithIngestAndTtl) {
  // The randomized harness again, now with bulk ingests mixed into the
  // write stream and a TTL-style compaction filter armed (it never matches
  // these values, so it must never change observable state — it exercises
  // the filter path under compaction during recovery-heavy workloads).
  const std::string base = TestDir("crash_ingest_rand");
  std::filesystem::create_directories(base);

  class NeverDrop : public CompactionFilter {
   public:
    const char* Name() const override { return "test.never"; }
    bool ShouldDrop(int, const Slice&, const Slice& value) const override {
      return value == Slice("expired-marker-never-written");
    }
  };
  NeverDrop filter;

  for (int iter = 0; iter < 6; iter++) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const uint64_t seed = g_seed_base * 77 + static_cast<uint64_t>(iter);
    Random rng(seed);
    const std::string dir = base + "/iter" + std::to_string(iter);
    std::filesystem::remove_all(dir);

    FaultInjectionEnv fenv(Env::Default(), seed);
    Options options;
    options.env = &fenv;
    options.write_buffer_size = 2 * 1024;
    options.compaction_filter = &filter;

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());

    // Interleave normal synced writes with bulk ingests of disjoint high key
    // ranges, then crash at a random point.
    int ingests_done = 0;
    const int num_rounds = 3 + static_cast<int>(rng.Uniform(4));
    const int crash_round = static_cast<int>(rng.Uniform(num_rounds + 1));
    int synced_rows = 0;
    for (int r = 0; r < num_rounds; r++) {
      if (r == crash_round) {
        fenv.Crash();
        break;
      }
      for (int i = synced_rows; i < synced_rows + 20; i++) {
        WriteOptions wo;
        wo.sync = true;
        ASSERT_TRUE(db->Put(wo, Key(i), Value(i)).ok());
      }
      synced_rows += 20;
      const std::string ext =
          dir + "/bulk-" + std::to_string(r) + ".tmp";
      SstFileWriter writer(options);
      ASSERT_TRUE(writer.Open(ext).ok());
      for (int i = 0; i < 30; i++) {
        const int k = 10000 + r * 100 + i;
        ASSERT_TRUE(writer.Put(Key(k), Value(k)).ok());
      }
      ExternalSstFileInfo info;
      ASSERT_TRUE(writer.Finish(&info).ok());
      DB::IngestOptions io;
      io.move_file = true;
      ASSERT_TRUE(db->IngestExternalFile(io, ext).ok());
      ingests_done = r + 1;
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(db->CompactAll().ok());
      }
    }
    if (!fenv.crashed()) fenv.Crash();
    db.reset();
    ASSERT_TRUE(fenv.DropUnsyncedAndReset().ok());

    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    // Every acknowledged synced write and every completed ingest survives.
    for (int i = 0; i < synced_rows; i++) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok())
          << "lost synced row " << Key(i);
      EXPECT_EQ(value, Value(i));
    }
    for (int r = 0; r < ingests_done; r++) {
      for (int i = 0; i < 30; i++) {
        const int k = 10000 + r * 100 + i;
        std::string value;
        ASSERT_TRUE(db->Get(ReadOptions(), Key(k), &value).ok())
            << "lost ingested row " << Key(k);
        EXPECT_EQ(value, Value(k));
      }
    }
    DB::IntegrityReport report;
    ASSERT_TRUE(db->VerifyIntegrity(&report).ok());
    db.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace tman::kv

// ---------------------------------------------------------------------------
// Cluster-level degradation and retry.

namespace tman::cluster {
namespace {

std::string ClusterDir(const std::string& name) {
  std::string dir =
      std::string(::testing::TempDir()) + "tman_fault_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ShardKey(uint8_t shard, uint64_t value) {
  std::string key(1, static_cast<char>(shard));
  PutBigEndian64(&key, value);
  return key;
}

// Counts the rows every fork received.
class CountingSink : public ScanSink {
 public:
  std::unique_ptr<kv::RowSink> Fork() override {
    return std::make_unique<CountingFork>();
  }
  void Join(kv::RowSink* fork) override {
    rows_ += static_cast<CountingFork*>(fork)->rows;
  }
  uint64_t rows() const { return rows_; }

 private:
  struct CountingFork : public kv::RowSink {
    bool Accept(const Slice& key, const Slice& value) override {
      (void)key;
      (void)value;
      rows++;
      return true;
    }
    uint64_t rows = 0;
  };

  uint64_t rows_ = 0;
};

constexpr int kShards = 4;
constexpr uint64_t kRowsPerShard = 100;

// Builds a 4-shard table on a FaultInjectionEnv with all rows flushed to
// SSTables (reads must touch disk for injected read faults to fire).
void LoadTable(Cluster* cluster, ClusterTable** table) {
  ASSERT_TRUE(cluster->CreateTable("t", kShards).ok());
  *table = cluster->GetTable("t");
  std::vector<Row> rows;
  for (uint8_t shard = 0; shard < kShards; shard++) {
    for (uint64_t v = 0; v < kRowsPerShard; v++) {
      rows.push_back(Row{ShardKey(shard, v), "payload"});
    }
  }
  ASSERT_TRUE((*table)->BatchPut(rows).ok());
  ASSERT_TRUE((*table)->Flush().ok());
}

TEST(ClusterDegradedTest, StrictScanReportsFailedRegion) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  kv::Options options;
  options.env = &fenv;
  options.block_cache_bytes = 1024;  // keep reads on disk
  Cluster cluster(ClusterDir("strict"), 2, options);
  ClusterTable* table = nullptr;
  ASSERT_NO_FATAL_FAILURE(LoadTable(&cluster, &table));

  fenv.FailReads("/t/shard2/", -1);
  CountingSink sink;
  kv::ScanStats stats;
  ScanOutcome outcome;
  Status s = table->MultiScan({KeyRange{"", ""}}, nullptr, 0, &sink, &stats,
                              nullptr, nullptr, &outcome);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(outcome.regions_attempted, 4u);
  EXPECT_EQ(outcome.regions_failed, 1u);
  ASSERT_EQ(outcome.region_errors.size(), 1u);
  EXPECT_EQ(outcome.region_errors[0].first, 2);
  EXPECT_EQ(outcome.retries, 0u);
  // The three healthy regions still delivered their rows.
  EXPECT_EQ(sink.rows(), 3 * kRowsPerShard);
  fenv.ClearFaults();
}

TEST(ClusterDegradedTest, RetryPolicyHealsTransientFault) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  kv::Options options;
  options.env = &fenv;
  options.block_cache_bytes = 1024;
  Cluster cluster(ClusterDir("retry"), 2, options);
  ClusterTable* table = nullptr;
  ASSERT_NO_FATAL_FAILURE(LoadTable(&cluster, &table));

  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_micros = 100;
  table->set_retry_policy(policy);

  // One read on shard1 fails, then the fault disarms: a retry succeeds.
  fenv.FailReads("/t/shard1/", 1);
  CountingSink sink;
  kv::ScanStats stats;
  ScanOutcome outcome;
  Status s = table->MultiScan({KeyRange{"", ""}}, nullptr, 0, &sink, &stats,
                              nullptr, nullptr, &outcome);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_EQ(outcome.regions_failed, 0u);
  EXPECT_EQ(sink.rows(), static_cast<uint64_t>(kShards) * kRowsPerShard);
  fenv.ClearFaults();
}

// Records every delivered key and, once `arm_after` rows of region
// `shard` have arrived, arms one read fault on that region's files: the
// region's next block read fails mid-stream. Only that region's fork sees
// its rows, so the fork counts them on its own. Each fork also records its
// Finish calls and the rows it had received by the first.
class ArmingSink : public ScanSink {
 public:
  ArmingSink(kv::FaultInjectionEnv* env, uint8_t shard, uint64_t arm_after)
      : env_(env), shard_(shard), arm_after_(arm_after) {}

  std::unique_ptr<kv::RowSink> Fork() override {
    return std::make_unique<ArmingFork>(this);
  }
  void Finish(kv::RowSink* fork) override {
    auto* f = static_cast<ArmingFork*>(fork);
    if (f->finishes++ == 0) f->rows_at_finish = f->rows;
  }
  void Join(kv::RowSink* fork) override {
    auto* f = static_cast<ArmingFork*>(fork);
    for (const auto& [key, n] : f->delivered) delivered[key] += n;
    finishes.push_back(f->finishes);
    rows.push_back(f->rows);
    rows_at_finish.push_back(f->rows_at_finish);
  }

  std::map<std::string, int> delivered;
  // Per fork, in join (region key) order.
  std::vector<int> finishes;
  std::vector<uint64_t> rows;
  std::vector<uint64_t> rows_at_finish;

 private:
  struct ArmingFork : public kv::RowSink {
    explicit ArmingFork(const ArmingSink* sink) : sink(sink) {}
    bool Accept(const Slice& key, const Slice& value) override {
      (void)value;
      delivered[key.ToString()]++;
      rows++;
      if (static_cast<uint8_t>(key[0]) == sink->shard_ &&
          ++shard_rows == sink->arm_after_) {
        sink->env_->FailReads("/t/shard" + std::to_string(sink->shard_) + "/",
                              1);
      }
      return true;
    }
    const ArmingSink* sink;
    std::map<std::string, int> delivered;
    uint64_t shard_rows = 0;
    uint64_t rows = 0;
    int finishes = 0;
    uint64_t rows_at_finish = 0;
  };

  kv::FaultInjectionEnv* env_;
  uint8_t shard_;
  uint64_t arm_after_;
};

TEST(ClusterDegradedTest, MidStreamRetryResumesPastLastDeliveredKey) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  kv::Options options;
  options.env = &fenv;
  options.block_cache_bytes = 1024;  // keep reads on disk
  Cluster cluster(ClusterDir("midstream"), 2, options);
  ASSERT_TRUE(cluster.CreateTable("t", kShards).ok());
  ClusterTable* table = cluster.GetTable("t");
  // ~200 KiB per region, so many blocks remain to read after the fault
  // is armed.
  constexpr uint64_t kRows = 1000;
  std::vector<Row> rows;
  for (uint8_t shard = 0; shard < kShards; shard++) {
    for (uint64_t v = 0; v < kRows; v++) {
      rows.push_back(Row{ShardKey(shard, v), std::string(200, 'a' + v % 26)});
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());
  ASSERT_TRUE(table->Flush().ok());

  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_micros = 100;
  table->set_retry_policy(policy);

  // Sorted, disjoint windows per region: the retried task trims them to
  // resume just past the last key it delivered.
  const std::vector<std::pair<uint64_t, uint64_t>> spans = {
      {0, 300}, {350, 700}, {720, kRows}};
  std::vector<KeyRange> windows;
  std::map<std::string, int> want;
  for (uint8_t shard = 0; shard < kShards; shard++) {
    for (const auto& [lo, hi] : spans) {
      windows.push_back(KeyRange{ShardKey(shard, lo), ShardKey(shard, hi)});
      for (uint64_t v = lo; v < hi; v++) want[ShardKey(shard, v)] = 1;
    }
  }
  ArmingSink sink(&fenv, 1, 400);  // region 1 fails in its second window
  ScanOutcome outcome;
  Status s = table->MultiScan(windows, nullptr, 0, &sink, nullptr, nullptr,
                              nullptr, &outcome);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(fenv.faults_injected(), 1u);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_EQ(outcome.regions_failed, 0u);
  EXPECT_EQ(sink.delivered, want);  // every row exactly once
  // Every task, the retried one included, finished its fork exactly once,
  // after its last row: for region 1, after the resumed attempt.
  ASSERT_EQ(sink.finishes.size(), static_cast<size_t>(kShards));
  for (int i = 0; i < kShards; i++) {
    EXPECT_EQ(sink.finishes[i], 1) << "region " << i;
    EXPECT_EQ(sink.rows_at_finish[i], sink.rows[i]) << "region " << i;
  }
  EXPECT_EQ(sink.rows[1], want.size() / kShards);
  fenv.ClearFaults();
}

TEST(ClusterDegradedTest, FlushAttemptsEveryRegionAndAnnotatesError) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  kv::Options options;
  options.env = &fenv;
  Cluster cluster(ClusterDir("flushall"), 2, options);
  ASSERT_TRUE(cluster.CreateTable("t", kShards).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint8_t shard = 0; shard < kShards; shard++) {
    ASSERT_TRUE(table->Put(ShardKey(shard, 1), "v").ok());
  }

  // Shard 3's SSTable build hits ENOSPC; the other regions must still
  // flush, and the error must say how far the operation got.
  fenv.NoSpaceAppends("/t/shard3/", -1);
  Status s = table->Flush();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("3 of 4 regions succeeded"), std::string::npos)
      << s.ToString();

  fenv.ClearFaults();
  ASSERT_TRUE(table->Flush().ok());
  ASSERT_TRUE(table->CompactAll().ok());
}

}  // namespace
}  // namespace tman::cluster

// ---------------------------------------------------------------------------
// End-to-end: degraded-mode queries through TMan (tentpole part 3).

namespace tman::core {
namespace {

std::string CoreDir(const std::string& name) {
  std::string dir =
      std::string(::testing::TempDir()) + "tman_fault_core_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TManOptions FaultOptions(const traj::DatasetSpec& spec,
                         kv::FaultInjectionEnv* fenv) {
  TManOptions options;
  options.bounds = spec.bounds;
  options.primary = PrimaryIndexKind::kTemporal;  // direct primary scans
  options.tr.origin = 0;
  options.tr.period_seconds = 3600;
  options.tr.max_periods = 24;
  options.xzt.origin = 0;
  options.num_shards = 4;
  options.num_servers = 2;
  options.genetic.generations = 5;
  options.kv.env = fenv;
  options.kv.write_buffer_size = 64 * 1024;
  options.kv.block_cache_bytes = 1024;  // query reads must touch disk
  return options;
}

class TManDegradedTest : public ::testing::Test {
 protected:
  void Load(const std::string& dir, const TManOptions& options) {
    spec_ = traj::TDriveLikeSpec();
    data_ = traj::Generate(spec_, 120, 7);
    ASSERT_TRUE(TMan::Open(options, dir, &tman_).ok());
    ASSERT_TRUE(tman_->BulkLoad(data_).ok());
    ASSERT_TRUE(tman_->Flush().ok());
    // Quiesce maintenance so injected faults only hit the query path.
    ASSERT_TRUE(tman_->CompactAll().ok());
  }

  // Declared before tman_: members destroy in reverse order, so the TMan
  // instance (whose close path still performs I/O through the env) goes
  // away first.
  kv::FaultInjectionEnv fenv_{kv::Env::Default()};
  traj::DatasetSpec spec_;
  std::vector<traj::Trajectory> data_;
  std::unique_ptr<TMan> tman_;
};

TEST_F(TManDegradedTest, StrictFailsDegradedReturnsPartial) {
  kv::FaultInjectionEnv& fenv = fenv_;
  ASSERT_NO_FATAL_FAILURE(
      Load(CoreDir("degraded"), FaultOptions(traj::TDriveLikeSpec(), &fenv)));

  const int64_t ts = spec_.t0;
  const int64_t te = spec_.t0 + spec_.horizon_seconds;

  // Baseline (no faults): the full answer, and it must read storage.
  std::vector<traj::Trajectory> baseline;
  ASSERT_TRUE(tman_->TemporalRangeQuery(ts, te, &baseline).ok());
  ASSERT_GT(baseline.size(), 0u);

  // One primary region dies (unbounded read faults).
  fenv.FailReads("primary/shard1/", -1);

  // Strict mode (default): the query surfaces the region error.
  std::vector<traj::Trajectory> out;
  QueryStats stats;
  Status s = tman_->TemporalRangeQuery(ts, te, &out, &stats);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(stats.degraded);

  // Degraded mode: partial results, loss accounted.
  out.clear();
  QueryStats dstats;
  QueryOptions qopts;
  qopts.allow_degraded = true;
  qopts.trace = true;
  s = tman_->TemporalRangeQuery(ts, te, &out, &dstats, qopts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(dstats.degraded);
  EXPECT_EQ(dstats.regions_failed, 1u);
  EXPECT_LT(out.size(), baseline.size());
  // EXPLAIN ANALYZE carries the failure annotations.
  ASSERT_NE(dstats.trace, nullptr);
  const std::string rendered = dstats.trace->Render();
  EXPECT_NE(rendered.find("regions_failed"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("degraded"), std::string::npos) << rendered;

  fenv.ClearFaults();
}

TEST_F(TManDegradedTest, RegionRetryHealsTransientFaultWithoutDegrading) {
  kv::FaultInjectionEnv& fenv = fenv_;
  TManOptions options = FaultOptions(traj::TDriveLikeSpec(), &fenv);
  options.region_retry.max_retries = 3;
  options.region_retry.initial_backoff_micros = 100;
  ASSERT_NO_FATAL_FAILURE(Load(CoreDir("retryheal"), options));

  const int64_t ts = spec_.t0;
  const int64_t te = spec_.t0 + spec_.horizon_seconds;

  // A transient fault: the first read of primary/shard1 fails, then heals.
  fenv.FailReads("primary/shard1/", 1);
  std::vector<traj::Trajectory> out;
  QueryStats stats;
  Status s = tman_->TemporalRangeQuery(ts, te, &out, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.regions_failed, 0u);

  // Same answer as the fault-free run.
  fenv.ClearFaults();
  std::vector<traj::Trajectory> baseline;
  ASSERT_TRUE(tman_->TemporalRangeQuery(ts, te, &baseline).ok());
  EXPECT_EQ(out.size(), baseline.size());
}

// ---------------------------------------------------------------------------
// The shape catalog under faults.

// SRQ, STRQ, TRQ and threshold answers over a few windows and probes, as
// result counts, plus the catalog's counts.
std::vector<uint64_t> CatalogAnswers(TMan* tman, const traj::DatasetSpec& spec,
                                     const std::vector<traj::Trajectory>& data) {
  std::vector<uint64_t> answers = {
      tman->index_cache()->occupied_elements(),
      tman->index_cache()->registered_shapes()};
  std::vector<traj::Trajectory> out;
  for (const auto& w : traj::RandomSpaceWindows(spec, 4, 5000, 3)) {
    EXPECT_TRUE(tman->SpatialRangeQuery(w.rect, &out).ok());
    answers.push_back(out.size());
    out.clear();
    EXPECT_TRUE(tman->SpatioTemporalRangeQuery(
                        w.rect, spec.t0, spec.t0 + 24 * 3600, &out)
                    .ok());
    answers.push_back(out.size());
    out.clear();
  }
  uint64_t count = 0;
  EXPECT_TRUE(tman->TemporalRangeCount(spec.t0, spec.t0 + spec.horizon_seconds,
                                       &count)
                  .ok());
  answers.push_back(count);
  for (size_t i = 0; i < data.size(); i += 50) {
    EXPECT_TRUE(tman->ThresholdSimilarityQuery(
                        data[i], geo::SimilarityMeasure::kFrechet, 0.02, &out)
                    .ok());
    answers.push_back(out.size());
    out.clear();
  }
  return answers;
}

// Each occupied element's shape list.
std::map<uint64_t, index::ShapeList> CatalogLists(TMan* tman) {
  std::map<uint64_t, index::ShapeList> lists;
  IndexCache* cache = tman->index_cache();
  for (uint64_t e = cache->NextOccupied(0); e != UINT64_MAX;
       e = cache->NextOccupied(e + 1)) {
    lists[e] = cache->GetElement(e)->shapes;
  }
  return lists;
}

// A power loss right after Flush keeps the catalog: Flush makes the meta
// table's rows durable along with the rows that use their codes, so the
// reopened store answers as before. Without the meta table in Flush its
// rows sit only in an unsynced WAL, and the spatial answers drop to 0.
TEST(TManCrashTest, PowerLossRightAfterFlushKeepsTheCatalog) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = FaultOptions(spec, &fenv);
  options.primary = PrimaryIndexKind::kSpatial;
  const std::string dir = CoreDir("power_loss");
  const auto data = traj::Generate(spec, 200, 9);
  auto more = traj::Generate(spec, 100, 10);
  for (auto& t : more) t.tid += "-new";
  std::vector<traj::Trajectory> all = data;
  all.insert(all.end(), more.begin(), more.end());

  std::vector<uint64_t> before;
  {
    std::unique_ptr<TMan> tman;
    ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
    ASSERT_TRUE(tman->BulkLoad(data).ok());
    ASSERT_TRUE(tman->Insert(more).ok());
    ASSERT_TRUE(tman->Flush().ok());
    before = CatalogAnswers(tman.get(), spec, all);
    fenv.Crash();
  }
  ASSERT_TRUE(fenv.DropUnsyncedAndReset().ok());
  ASSERT_GT(before[0], 0u);
  ASSERT_GT(before[2], 0u);  // the first SRQ finds rows

  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
  EXPECT_EQ(CatalogAnswers(tman.get(), spec, all), before);
}

// A power loss right after BulkLoad, with no Flush: the ingested rows are
// durable when the load returns, and so are the catalog rows that give
// their codes and the config row, because the load makes the meta table
// durable before it ingests. The reopened store answers as before, and
// refuses another key layout. Without that step the meta rows sit only in
// an unsynced WAL: the spatial answers drop to 0, and a store with other
// options opens. The crash keeps no torn tail of an unsynced WAL, so no
// meta row survives by chance.
TEST(TManCrashTest, PowerLossRightAfterBulkLoadKeepsTheCatalog) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  fenv.set_torn_tail_on_crash(false);
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = FaultOptions(spec, &fenv);
  options.primary = PrimaryIndexKind::kSpatial;
  const std::string dir = CoreDir("power_loss_bulk");
  const auto data = traj::Generate(spec, 200, 13);

  std::vector<uint64_t> before;
  {
    std::unique_ptr<TMan> tman;
    ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
    ASSERT_TRUE(tman->BulkLoad(data).ok());
    before = CatalogAnswers(tman.get(), spec, data);
    fenv.Crash();
  }
  ASSERT_TRUE(fenv.DropUnsyncedAndReset().ok());
  ASSERT_GT(before[0], 0u);
  ASSERT_GT(before[2], 0u);  // the first SRQ finds rows

  std::unique_ptr<TMan> tman;
  TManOptions other = options;
  other.tshape.max_resolution = options.tshape.max_resolution - 1;
  EXPECT_TRUE(TMan::Open(other, dir, &tman).IsInvalidArgument());
  ASSERT_TRUE(TMan::Open(options, dir, &tman).ok());
  EXPECT_EQ(CatalogAnswers(tman.get(), spec, data), before);
}

// A catalog write that fails fails the Insert that needed it and
// publishes nothing: no row is written and no element's list changes. A
// retry once the fault clears places every shape, one code per bitmap,
// and keeps every code placed before.
TEST(TManCrashTest, FailedCatalogWriteFailsTheInsertAndPublishesNothing) {
  kv::FaultInjectionEnv fenv(kv::Env::Default());
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  TManOptions options = FaultOptions(spec, &fenv);
  options.primary = PrimaryIndexKind::kSpatial;
  std::unique_ptr<TMan> tman;
  ASSERT_TRUE(TMan::Open(options, CoreDir("catalog_write"), &tman).ok());
  const auto data = traj::Generate(spec, 150, 11);
  ASSERT_TRUE(tman->BulkLoad(data).ok());
  auto more = traj::Generate(spec, 100, 12);
  for (auto& t : more) t.tid += "-new";

  const int64_t ts = spec.t0;
  const int64_t te = spec.t0 + spec.horizon_seconds;
  uint64_t trq = 0;
  ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &trq).ok());
  ASSERT_EQ(trq, data.size());
  const auto lists = CatalogLists(tman.get());
  const uint64_t shapes = tman->index_cache()->registered_shapes();

  fenv.FailAppends("/meta/", 1);
  const Status failed = tman->Insert(more);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(fenv.faults_injected(), 1u);
  uint64_t count = 0;
  ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &count).ok());
  EXPECT_EQ(count, trq);
  EXPECT_EQ(CatalogLists(tman.get()), lists);
  EXPECT_EQ(tman->index_cache()->registered_shapes(), shapes);

  fenv.ClearFaults();
  ASSERT_TRUE(tman->Insert(more).ok());
  ASSERT_TRUE(tman->TemporalRangeCount(ts, te, &count).ok());
  EXPECT_EQ(count, data.size() + more.size());
  const auto now = CatalogLists(tman.get());
  EXPECT_GT(now.size(), lists.size());
  uint64_t listed = 0;
  for (const auto& [e, list] : now) {
    std::set<uint32_t> bitmaps, codes;
    for (const auto& [bits, code] : list) {
      bitmaps.insert(bits);
      codes.insert(code);
    }
    EXPECT_EQ(bitmaps.size(), list.size()) << "element " << e;
    EXPECT_EQ(codes.size(), list.size()) << "element " << e;
    const auto it = lists.find(e);
    if (it != lists.end()) {
      for (const auto& shape : it->second) {
        EXPECT_NE(std::find(list.begin(), list.end(), shape), list.end())
            << "element " << e << " lost or moved bitmap " << shape.first;
      }
    }
    listed += list.size();
  }
  EXPECT_EQ(tman->index_cache()->registered_shapes(), listed);
  EXPECT_GT(listed, shapes);
  const traj::SpatialBounds& b = spec.bounds;
  ASSERT_TRUE(tman->SpatialRangeCount(
                      geo::MBR{b.min_lon, b.min_lat, b.max_lon, b.max_lat},
                      &count)
                  .ok());
  EXPECT_EQ(count, data.size() + more.size());
}

}  // namespace
}  // namespace tman::core

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      tman::kv::g_seed_base = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      tman::kv::g_seed_base = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  printf("fault_injection_test seed base: %llu\n",
         static_cast<unsigned long long>(tman::kv::g_seed_base));
  return RUN_ALL_TESTS();
}
