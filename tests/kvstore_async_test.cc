// Tests for the asynchronous write path: group-commit WAL, background
// flush/compaction, write backpressure, sync-write plumbing and crash
// recovery with a frozen memtable in flight.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/db.h"
#include "kvstore/env.h"
#include "kvstore/options.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_kv_async_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(int thread, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%02d-%06d", thread, i);
  return buf;
}

// ---------------------------------------------------------------------------
// Group commit

TEST(AsyncDBTest, GroupCommitConcurrentWriters) {
  std::string dir = TestDir("group_commit");
  Options options;
  options.write_buffer_size = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  constexpr int kThreads = 8;
  constexpr int kWrites = 500;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kWrites; i++) {
        if (!db->Put(wo, Key(t, i), std::string("v").append(std::to_string(i)))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(db->Flush().ok());
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kWrites; i++) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), Key(t, i), &value).ok())
          << Key(t, i);
      EXPECT_EQ(value, std::string("v").append(std::to_string(i)));
    }
  }
  DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.flush_count, 0u);  // background flushes actually happened
}

// ---------------------------------------------------------------------------
// WriteOptions::sync -> Env::SyncFile

// Env wrapper that counts SyncFile calls and forwards everything else.
class SyncCountingEnv : public Env {
 public:
  explicit SyncCountingEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(fname, r);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* r) override {
    return base_->NewSequentialFile(fname, r);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status SyncFile(WritableFile* file) override {
    syncs.fetch_add(1);
    return base_->SyncFile(file);
  }

  std::atomic<int> syncs{0};

 private:
  Env* base_;
};

TEST(AsyncDBTest, SyncWritesHitEnvSyncFile) {
  std::string dir = TestDir("sync_writes");
  SyncCountingEnv env(Env::Default());
  Options options;
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  WriteOptions async_wo;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put(async_wo, Key(0, i), "v").ok());
  }
  EXPECT_EQ(env.syncs.load(), 0);  // non-sync writes never fsync

  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(db->Put(sync_wo, Key(1, i), "v").ok());
  }
  EXPECT_GT(env.syncs.load(), 0);
  EXPECT_LE(env.syncs.load(), 5);  // group commit may coalesce, never inflate
  EXPECT_EQ(db->GetStats().wal_syncs, static_cast<uint64_t>(env.syncs.load()));
}

// ---------------------------------------------------------------------------
// Readers concurrent with background flush/compaction

TEST(AsyncDBTest, IteratorStableDuringFlushAndCompaction) {
  std::string dir = TestDir("stable_iter");
  Options options;
  options.write_buffer_size = 16 * 1024;
  options.max_file_bytes = 32 * 1024;
  options.base_level_bytes = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  constexpr int kStable = 200;
  WriteOptions wo;
  for (int i = 0; i < kStable; i++) {
    ASSERT_TRUE(db->Put(wo, std::string("a").append(Key(0, i)), "stable").ok());
  }

  // Snapshot *before* the churn starts.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    // Keys sort after the "a" prefix; heavy enough to force several
    // flushes and compactions while the iterator is read (runs to
    // completion so the flush count below is deterministic).
    for (int i = 0; i < 4000; i++) {
      std::string value(256, 'x');
      ASSERT_TRUE(db->Put(wo, std::string("b").append(Key(1, i)), value).ok());
    }
  });
  std::thread readers([&] {
    while (!stop.load()) {
      std::string value;
      Status s = db->Get(ReadOptions(), std::string("a").append(Key(0, 7)), &value);
      ASSERT_TRUE(s.ok());
      ASSERT_EQ(value, "stable");
    }
  });

  int seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_EQ(iter->value().ToString(), "stable");
    seen++;
  }
  EXPECT_EQ(seen, kStable);  // the snapshot never sees the churn writes

  churn.join();
  stop.store(true);
  readers.join();
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GT(db->GetStats().flush_count, 1u);
}

// ---------------------------------------------------------------------------
// Crash recovery

// Simulates a crash by copying the live DB directory (as a crash would
// leave it) and reopening the copy.
TEST(AsyncDBTest, CrashRecoveryReplaysWalOnly) {
  std::string dir = TestDir("crash_wal");
  std::string crash_dir = TestDir("crash_wal_copy");
  Options options;  // default 4MB buffer: nothing flushes
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(wo, Key(0, i), "wal-only-" + std::to_string(i)).ok());
  }

  std::filesystem::copy(dir, crash_dir);
  // The "crashed" image must hold the data in WALs, not SSTables.
  int sst_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(crash_dir)) {
    if (e.path().extension() == ".sst") sst_files++;
  }
  EXPECT_EQ(sst_files, 0);

  std::unique_ptr<DB> recovered;
  ASSERT_TRUE(DB::Open(options, crash_dir, &recovered).ok());
  for (int i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(recovered->Get(ReadOptions(), Key(0, i), &value).ok());
    EXPECT_EQ(value, "wal-only-" + std::to_string(i));
  }
}

// Env that parks the first SSTable creation on a gate, holding the
// background flush mid-flight: the frozen memtable's WAL and the active
// WAL both exist on disk, but no SSTable has been produced yet.
class FlushGateEnv : public SyncCountingEnv {
 public:
  explicit FlushGateEnv(Env* base) : SyncCountingEnv(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fname.size() > 4 && fname.substr(fname.size() - 4) == ".sst") {
      std::unique_lock<std::mutex> lock(mu_);
      blocked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return SyncCountingEnv::NewWritableFile(fname, result);
  }

  bool IsBlocked() {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

TEST(AsyncDBTest, CrashRecoveryWithFrozenMemtable) {
  std::string dir = TestDir("crash_frozen");
  std::string crash_dir = TestDir("crash_frozen_copy");
  FlushGateEnv env(Env::Default());
  Options options;
  options.env = &env;
  options.write_buffer_size = 8 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  // Write until the memtable freezes and its background flush parks on the
  // gate; the pacing sleep guarantees the worker reaches the gate well
  // before a second freeze could hard-stall this thread.
  WriteOptions wo;
  int written = 0;
  while (!env.IsBlocked() && written < 500) {
    ASSERT_TRUE(
        db->Put(wo, Key(0, written), std::string(64, 'a')).ok());
    written++;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(env.IsBlocked());

  // Crash image: frozen-memtable WAL + active WAL, no SSTable yet. The
  // directory is quiescent (the only background task is parked).
  std::filesystem::copy(dir, crash_dir);
  int sst_files = 0, wal_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(crash_dir)) {
    if (e.path().extension() == ".sst") sst_files++;
    if (e.path().extension() == ".wal") wal_files++;
  }
  EXPECT_EQ(sst_files, 0);
  EXPECT_EQ(wal_files, 2);

  env.Release();
  db.reset();

  Options plain;  // the copy reopens with the default Env
  plain.write_buffer_size = 8 * 1024;
  std::unique_ptr<DB> recovered;
  ASSERT_TRUE(DB::Open(plain, crash_dir, &recovered).ok());
  for (int i = 0; i < written; i++) {
    std::string value;
    ASSERT_TRUE(recovered->Get(ReadOptions(), Key(0, i), &value).ok())
        << Key(0, i);
    EXPECT_EQ(value, std::string(64, 'a'));
  }
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(AsyncDBTest, BackpressureSlowsButNeverLosesData) {
  std::string dir = TestDir("backpressure");
  Options options;
  options.write_buffer_size = 4 * 1024;
  options.l0_compaction_trigger = 2;
  options.l0_slowdown_trigger = 2;
  options.l0_stop_trigger = 4;
  options.max_file_bytes = 8 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  constexpr int kWrites = 2000;
  WriteOptions wo;
  for (int i = 0; i < kWrites; i++) {
    ASSERT_TRUE(db->Put(wo, Key(0, i), std::string(128, 'p')).ok());
  }

  DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.stall_count, 0u);  // thresholds this tight must throttle
  EXPECT_GT(stats.stall_micros, 0u);

  ASSERT_TRUE(db->Flush().ok());
  for (int i = 0; i < kWrites; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(0, i), &value).ok()) << Key(0, i);
  }
  // Backpressure kept L0 bounded instead of letting it grow with the load.
  stats = db->GetStats();
  ASSERT_FALSE(stats.files_per_level.empty());
  EXPECT_LE(stats.files_per_level[0], options.l0_stop_trigger);
}

// ---------------------------------------------------------------------------
// Deletes across background flushes

TEST(AsyncDBTest, DeletesSurviveBackgroundFlushesAndCompactAll) {
  std::string dir = TestDir("mode_async");
  Options options;
  options.write_buffer_size = 8 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        db->Put(wo, Key(0, i), std::string("v").append(std::to_string(i)))
            .ok());
  }
  for (int i = 0; i < 400; i += 3) {
    ASSERT_TRUE(db->Delete(wo, Key(0, i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  for (int i = 0; i < 400; i++) {
    std::string value;
    Status s = db->Get(ReadOptions(), Key(0, i), &value);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << Key(0, i);
    } else {
      ASSERT_TRUE(s.ok()) << Key(0, i);
      EXPECT_EQ(value, std::string("v").append(std::to_string(i)));
    }
  }
}

}  // namespace
}  // namespace tman::kv
