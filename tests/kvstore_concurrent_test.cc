// Tests for the multicore write path: group commit in DB::WriteImpl under
// concurrent writers. The leader folds queued batches into one WAL record
// and applies them to the memtable itself (the memtable's only writer).
// The stress tests run mixed writers/readers with a mid-run flush and
// differential-check the final state against a single-threaded replay of
// the same operations. Built with -fsanitize=thread in the CI tsan job,
// where any concurrent memtable Add would be reported as a race.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/db.h"
#include "kvstore/options.h"
#include "kvstore/scan_filter.h"
#include "kvstore/write_batch.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_kv_conc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(int thread, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%02d-%06d", thread, i);
  return buf;
}

std::string Value(int thread, int i) {
  return std::string("v")
      .append(std::to_string(thread))
      .append("-")
      .append(std::to_string(i));
}

// ---------------------------------------------------------------------------
// DB group commit

// Deterministic per-thread workload so the final DB state is computable by
// a single-threaded replay: thread t writes Key(t, i) = Value(t, i) in
// batches of kBatch, and deletes every 7th of its own earlier keys.
struct Workload {
  int threads;
  int writes_per_thread;
  int batch;

  void Run(DB* db, int t, std::atomic<int>* failures) const {
    WriteOptions wo;
    for (int i = 0; i < writes_per_thread; i += batch) {
      WriteBatch wb;
      for (int j = i; j < i + batch && j < writes_per_thread; j++) {
        wb.Put(Key(t, j), Value(t, j));
        if (j % 7 == 0 && j >= batch) {
          wb.Delete(Key(t, j - batch));
        }
      }
      if (!db->Write(wo, &wb).ok()) failures->fetch_add(1);
    }
  }

  // Single-threaded replay of thread t's operations into `expected`.
  void Replay(int t, std::map<std::string, std::string>* expected) const {
    for (int i = 0; i < writes_per_thread; i += batch) {
      for (int j = i; j < i + batch && j < writes_per_thread; j++) {
        (*expected)[Key(t, j)] = Value(t, j);
        if (j % 7 == 0 && j >= batch) {
          expected->erase(Key(t, j - batch));
        }
      }
    }
  }

  std::map<std::string, std::string> Expected() const {
    std::map<std::string, std::string> expected;
    for (int t = 0; t < threads; t++) Replay(t, &expected);
    return expected;
  }
};

class CollectingSink : public RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    rows.emplace_back(key.ToString(), value.ToString());
    return true;
  }
  std::vector<std::pair<std::string, std::string>> rows;
};

void VerifyAgainstExpected(DB* db,
                           const std::map<std::string, std::string>& expected) {
  // Point lookups for every live key.
  for (const auto& [k, v] : expected) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
  // Full scan must reproduce the expected map exactly (catches phantom or
  // resurrected entries a per-key Get loop would miss).
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(
      db->Scan(ReadOptions(), "", "\xff", nullptr, 0, &rows, nullptr).ok());
  ASSERT_EQ(rows.size(), expected.size());
  auto it = expected.begin();
  for (size_t i = 0; i < rows.size(); i++, ++it) {
    EXPECT_EQ(rows[i].first, it->first);
    EXPECT_EQ(rows[i].second, it->second);
  }
}

TEST(DBConcurrentTest, StressWritersReadersFlushDifferential) {
  std::string dir = TestDir("stress");
  Options options;
  options.write_buffer_size = 256 * 1024;  // force flushes mid-run
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  const Workload wl{/*threads=*/4, /*writes_per_thread=*/3000, /*batch=*/8};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < wl.threads; t++) {
    threads.emplace_back([&, t] { wl.Run(db.get(), t, &failures); });
  }
  // Readers race the writers: a Get must return either NotFound or the
  // exact deterministic value; scans and MultiScans must come back sorted
  // with correct per-key values (each key is only ever written with one
  // value, so torn visibility would surface here).
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r] {
      uint64_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        const int t = static_cast<int>(round % wl.threads);
        const int i = static_cast<int>((round * 131) % wl.writes_per_thread);
        std::string got;
        Status s = db->Get(ReadOptions(), Key(t, i), &got);
        if (s.ok()) {
          ASSERT_EQ(got, Value(t, i));
        } else {
          ASSERT_TRUE(s.IsNotFound()) << s.ToString();
        }
        if (r == 0) {
          std::vector<std::pair<std::string, std::string>> rows;
          ASSERT_TRUE(db->Scan(ReadOptions(), Key(t, 0), Key(t, 200), nullptr,
                               0, &rows, nullptr)
                          .ok());
          for (size_t n = 1; n < rows.size(); n++) {
            ASSERT_LT(rows[n - 1].first, rows[n].first);
          }
        } else {
          // The windows borrow these keys, which must outlive MultiScan.
          std::vector<std::string> keys;
          for (int w = 0; w < wl.threads; w++) {
            keys.push_back(Key(w, 0));
            keys.push_back(Key(w, 50));
          }
          std::vector<ScanWindow> windows;
          for (size_t w = 0; w < keys.size(); w += 2) {
            windows.push_back(ScanWindow{keys[w], keys[w + 1]});
          }
          CollectingSink sink;
          ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, nullptr, 0, &sink,
                                    nullptr)
                          .ok());
          for (const auto& [k, v] : sink.rows) {
            int t2 = 0, i2 = 0;
            ASSERT_EQ(sscanf(k.c_str(), "k%d-%d", &t2, &i2), 2);
            ASSERT_EQ(v, Value(t2, i2));
          }
        }
        round++;
      }
    });
  }
  // Mid-run explicit flush: exercises the memtable handoff fence while
  // grouped writes are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(db->Flush().ok());

  for (int t = 0; t < wl.threads; t++) threads[t].join();
  done.store(true, std::memory_order_release);
  for (size_t t = wl.threads; t < threads.size(); t++) threads[t].join();
  EXPECT_EQ(failures.load(), 0);

  // Serial apply of the folded groups reproduces the single-threaded
  // replay exactly.
  VerifyAgainstExpected(db.get(), wl.Expected());
}

TEST(DBConcurrentTest, ReopenReplaysConcurrentWrites) {
  std::string dir = TestDir("reopen");
  const Workload wl{/*threads=*/4, /*writes_per_thread=*/600, /*batch=*/4};
  {
    Options options;
    // Large buffer: everything stays in the memtable/WAL, so reopen
    // exercises WAL replay of records that folded several writers' batches.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir, &db).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < wl.threads; t++) {
      threads.emplace_back([&, t] { wl.Run(db.get(), t, &failures); });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
  }
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  VerifyAgainstExpected(db.get(), wl.Expected());
}

TEST(DBConcurrentTest, SyncAndAsyncWritersShareGroups) {
  std::string dir = TestDir("sync");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());

  constexpr int kThreads = 4;
  constexpr int kWrites = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      wo.sync = (t % 2 == 0);  // mix sync and async writers in one group
      for (int i = 0; i < kWrites; i++) {
        if (!db->Put(wo, Key(t, i), Value(t, i)).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kWrites; i++) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), Key(t, i), &got).ok());
      EXPECT_EQ(got, Value(t, i));
    }
  }
}

}  // namespace
}  // namespace tman::kv
