#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "kvstore/db.h"
#include "kvstore/scan_filter.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_mscan_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(uint32_t n) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08u", n);
  return buf;
}

// Accepts rows whose value ends in an even digit (exercises push-down on
// both paths identically).
class EvenValueFilter : public ScanFilter {
 public:
  bool Matches(const Slice& key, const Slice& value) const override {
    (void)key;
    if (value.empty()) return false;
    return (value[value.size() - 1] - '0') % 2 == 0;
  }
};

// Collects rows and optionally stops after `stop_after` accepts (0 = never).
class RecordingSink : public RowSink {
 public:
  explicit RecordingSink(size_t stop_after = 0) : stop_after_(stop_after) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (stopped_) return false;  // "stopped" is sticky, like a stopped batch
    rows.emplace_back(key.ToString(), value.ToString());
    if (stop_after_ != 0 && rows.size() >= stop_after_) {
      stopped_ = true;
      return false;
    }
    return true;
  }

  bool stopped() const { return stopped_; }

  std::vector<std::pair<std::string, std::string>> rows;

 private:
  size_t stop_after_;
  bool stopped_ = false;
};

// The reference semantics MultiScan must reproduce byte for byte: one
// DB::Scan per window, in order, sharing one sink; a sink stop ends the
// whole sequence.
void SequentialScans(DB* db, const std::vector<ScanWindow>& windows,
                     const ScanFilter* filter, size_t limit,
                     RecordingSink* sink, ScanStats* stats) {
  for (const ScanWindow& w : windows) {
    if (sink->stopped()) break;
    ASSERT_TRUE(
        db->Scan(ReadOptions(), w.start, w.end, filter, limit, sink, stats)
            .ok());
  }
}

// Loads a DB whose snapshot spans every storage tier: compacted levels,
// L0 tables, and the live memtable (plus overwrites and tombstones so the
// version-collapsing logic is on the differential path too).
void LoadTieredDB(DB* db, uint32_t n, Random* rng) {
  auto put_range = [&](uint32_t lo, uint32_t hi) {
    for (uint32_t i = lo; i < hi; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i),
                          std::string("v").append(
                              std::to_string(rng->Uniform(1000))))
                      .ok());
    }
  };
  // Tier 1: compacted down.
  put_range(0, n / 2);
  ASSERT_TRUE(db->CompactAll().ok());
  // Tier 2: L0 only, overwriting a slice of tier 1.
  put_range(n / 3, (n * 3) / 4);
  ASSERT_TRUE(db->Flush().ok());
  // Tier 3: memtable, with deletions punched into the older tiers.
  put_range((n * 2) / 3, n);
  for (uint32_t i = 0; i < n; i += 17) {
    ASSERT_TRUE(db->Delete(WriteOptions(), Key(i)).ok());
  }
}

std::vector<std::string> MakeWindowKeys(uint32_t n, size_t num_windows,
                                        Random* rng) {
  std::vector<std::string> keys;
  keys.reserve(num_windows * 2);
  for (size_t i = 0; i < num_windows * 2; i++) {
    keys.push_back(Key(static_cast<uint32_t>(rng->Uniform(n + n / 10))));
  }
  return keys;
}

TEST(MultiScanTest, RandomizedDifferentialAgainstSequentialScans) {
  const std::string dir = TestDir("diff");
  Options options;
  options.write_buffer_size = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  Random rng(20260806);
  LoadTieredDB(db.get(), 4000, &rng);

  EvenValueFilter filter;
  for (int round = 0; round < 12; round++) {
    const size_t num_windows = 1 + rng.Uniform(96);
    std::vector<std::string> keys = MakeWindowKeys(4000, num_windows, &rng);
    std::vector<ScanWindow> windows;
    const bool sorted = round % 2 == 0;
    if (sorted) std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i + 1 < keys.size(); i += 2) {
      Slice a(keys[i]), b(keys[i + 1]);
      if (sorted || a.compare(b) <= 0) {
        windows.push_back(ScanWindow{a, b});
      } else {
        windows.push_back(ScanWindow{b, a});
      }
    }
    if (round % 3 == 0 && !windows.empty()) {
      windows.back().end = Slice();  // one unbounded window per third round
    }
    const ScanFilter* f = round % 2 == 0 ? &filter : nullptr;
    const size_t limit = rng.Uniform(3) == 0 ? 1 + rng.Uniform(20) : 0;

    RecordingSink expected;
    ScanStats expected_stats;
    SequentialScans(db.get(), windows, f, limit, &expected, &expected_stats);

    RecordingSink actual;
    ScanStats actual_stats;
    MultiScanPerf perf;
    ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, f, limit, &actual,
                              &actual_stats, &perf)
                    .ok());

    ASSERT_EQ(expected.rows, actual.rows) << "round " << round;
    EXPECT_EQ(expected_stats.scanned, actual_stats.scanned);
    EXPECT_EQ(expected_stats.matched, actual_stats.matched);
    EXPECT_EQ(perf.windows, windows.size());
    EXPECT_EQ(perf.seeks_issued + perf.seeks_saved, windows.size());
  }
}

TEST(MultiScanTest, SortedWindowsSaveSeeks) {
  const std::string dir = TestDir("seeksave");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (uint32_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  // Sorted, non-overlapping, back-to-back windows: after the first Seek the
  // cursor is always inside the next window already.
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < 3000; i += 100) keys.push_back(Key(i));
  std::vector<ScanWindow> windows;
  for (size_t i = 0; i + 1 < keys.size(); i++) {
    windows.push_back(ScanWindow{Slice(keys[i]), Slice(keys[i + 1])});
  }

  RecordingSink sink;
  MultiScanPerf perf;
  ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, nullptr, 0, &sink,
                            nullptr, &perf)
                  .ok());
  EXPECT_EQ(sink.rows.size(), 2900u);  // [0, 2900) contiguous
  EXPECT_EQ(perf.seeks_issued, 1u);  // only the very first window seeks
  EXPECT_EQ(perf.seeks_saved, windows.size() - 1);
  EXPECT_GT(perf.block_reuse + perf.blocks_readahead, 0u);

  // An exhausted cursor proves later in-order windows empty with no seeks.
  std::string past1 = Key(5000), past2 = Key(6000), past3 = Key(7000);
  std::vector<ScanWindow> past = {{Slice(keys.back()), Slice(past1)},
                                  {Slice(past1), Slice(past2)},
                                  {Slice(past2), Slice(past3)}};
  RecordingSink tail_sink;
  MultiScanPerf tail_perf;
  ASSERT_TRUE(db->MultiScan(ReadOptions(), past, nullptr, 0, &tail_sink,
                            nullptr, &tail_perf)
                  .ok());
  EXPECT_EQ(tail_sink.rows.size(), 100u);  // [2900, 3000)
  EXPECT_EQ(tail_perf.seeks_issued, 1u);
  EXPECT_EQ(tail_perf.seeks_saved, 2u);
}

TEST(MultiScanTest, MidScanFlushDoesNotPerturbSnapshot) {
  const std::string dir = TestDir("midflush");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  Random rng(7);
  LoadTieredDB(db.get(), 2000, &rng);

  std::string lo = Key(0), hi = Key(2000);
  std::vector<ScanWindow> windows = {{Slice(lo), Slice(hi)}};
  RecordingSink expected;
  SequentialScans(db.get(), windows, nullptr, 0, &expected, nullptr);
  ASSERT_FALSE(expected.rows.empty());

  // Sink that mutates and flushes the DB mid-scan: the running MultiScan
  // reads its own snapshot, so the result must be unchanged.
  class FlushingSink : public RowSink {
   public:
    FlushingSink(DB* db, size_t flush_at) : db_(db), flush_at_(flush_at) {}
    bool Accept(const Slice& key, const Slice& value) override {
      rows.emplace_back(key.ToString(), value.ToString());
      if (rows.size() == flush_at_) {
        EXPECT_TRUE(db_->Put(WriteOptions(), "k00000500", "mutated").ok());
        EXPECT_TRUE(db_->Delete(WriteOptions(), "k00001500").ok());
        EXPECT_TRUE(db_->Flush().ok());
      }
      return true;
    }
    std::vector<std::pair<std::string, std::string>> rows;

   private:
    DB* db_;
    size_t flush_at_;
  };

  FlushingSink actual(db.get(), expected.rows.size() / 2);
  ASSERT_TRUE(
      db->MultiScan(ReadOptions(), windows, nullptr, 0, &actual, nullptr)
          .ok());
  ASSERT_EQ(expected.rows, actual.rows);
}

TEST(MultiScanTest, DifferentialUnderConcurrentBackgroundWork) {
  const std::string dir = TestDir("concurrent");
  Options options;
  options.write_buffer_size = 32 * 1024;  // frequent flush/compaction churn
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (uint32_t i = 0; i < 1500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "stable" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Reference result over the stable "k........" keyspace, computed before
  // any concurrent writer starts.
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < 1500; i += 50) keys.push_back(Key(i));
  std::vector<ScanWindow> windows;
  for (size_t i = 0; i + 1 < keys.size(); i++) {
    windows.push_back(ScanWindow{Slice(keys[i]), Slice(keys[i + 1])});
  }
  RecordingSink expected;
  SequentialScans(db.get(), windows, nullptr, 0, &expected, nullptr);

  // Writers churn a disjoint prefix ("z...") hard enough to keep background
  // flushes and compactions running while the scans execute.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&db, &stop, t] {
      Random wrng(100 + t);
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string key = std::string("z")
                              .append(std::to_string(t))
                              .append("-")
                              .append(std::to_string(wrng.Uniform(4096)));
        EXPECT_TRUE(db->Put(WriteOptions(), key,
                            std::string(256, 'x') + std::to_string(i++))
                        .ok());
      }
    });
  }

  for (int round = 0; round < 25; round++) {
    RecordingSink actual;
    MultiScanPerf perf;
    ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, nullptr, 0, &actual,
                              nullptr, &perf)
                    .ok());
    ASSERT_EQ(expected.rows, actual.rows) << "round " << round;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// ---------------------------------------------------------------------------
// Cluster layer

// The oracle for ClusterTable::MultiScan, computed from the table's
// contents: each window is clamped to every region it intersects, and each
// (window, region) piece contributes its first `limit` matching rows in key
// order (limit 0 = all). Overlapping windows therefore contribute their
// overlap once per window. Also counts the rows the storage layer visits.
std::vector<std::pair<std::string, std::string>> OracleMultiScan(
    const std::map<std::string, std::string>& data,
    const std::vector<cluster::KeyRange>& regions,
    const std::vector<cluster::KeyRange>& windows, const ScanFilter* filter,
    size_t limit, ScanStats* stats) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const cluster::KeyRange& w : windows) {
    for (const cluster::KeyRange& r : regions) {
      if (!cluster::RangesIntersect(w, r)) continue;
      const std::string& lo = std::max(w.start, r.start);
      size_t matched = 0;
      for (auto it = data.lower_bound(lo); it != data.end(); ++it) {
        if (!cluster::RangeContains(w, it->first) ||
            !cluster::RangeContains(r, it->first)) {
          break;
        }
        stats->scanned++;
        if (filter != nullptr && !filter->Matches(it->first, it->second)) {
          continue;
        }
        stats->matched++;
        out.emplace_back(it->first, it->second);
        if (limit != 0 && ++matched >= limit) break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ClusterMultiScanTest, DifferentialAgainstOracle) {
  const std::string dir = TestDir("cluster");
  cluster::Cluster cluster_inst(dir, 3, Options());
  ASSERT_TRUE(cluster_inst.CreateTable("t", 4).ok());
  cluster::ClusterTable* table = cluster_inst.GetTable("t");
  Random rng(99);
  constexpr uint32_t kPerByte = 800;
  constexpr int kLeadBytes = 5;  // keys lead with bytes 0..4
  auto random_key = [&] {
    std::string key(1, static_cast<char>(rng.Uniform(kLeadBytes)));
    return key + Key(static_cast<uint32_t>(rng.Uniform(kPerByte)));
  };

  // Flushed rows, then overwrites and deletes left in the memtables.
  std::map<std::string, std::string> data;
  std::vector<cluster::Row> rows;
  for (int lead = 0; lead < kLeadBytes; lead++) {
    for (uint32_t i = 0; i < kPerByte; i++) {
      cluster::Row row{std::string(1, static_cast<char>(lead)).append(Key(i)),
                       std::string("v").append(
                           std::to_string(rng.Uniform(1000)))};
      data[row.key] = row.value;
      rows.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());
  ASSERT_TRUE(table->Flush().ok());
  // A split puts a region boundary inside a lead byte, not only between.
  ASSERT_TRUE(table->SplitRegionAt(3, std::string(1, '\x03') + Key(400)).ok());
  for (int i = 0; i < 300; i++) {
    const std::string key = random_key();
    if (rng.Uniform(3) == 0) {
      ASSERT_TRUE(table->Delete(key).ok());
      data.erase(key);
    } else {
      const std::string value =
          std::string("w").append(std::to_string(rng.Uniform(1000)));
      ASSERT_TRUE(table->Put(key, value).ok());
      data[key] = value;
    }
  }
  std::vector<cluster::KeyRange> regions;
  for (const auto& r : table->GetPerRegionStats()) regions.push_back(r.range);
  ASSERT_EQ(regions.size(), 5u);

  auto by_start = [](const cluster::KeyRange& a, const cluster::KeyRange& b) {
    return a.start < b.start;
  };
  // Each shape draws `n` windows; random endpoints straddle region
  // boundaries whenever their lead bytes differ.
  auto sorted_disjoint = [&](size_t n) {
    std::vector<std::string> keys;
    for (size_t i = 0; i < 2 * n; i++) keys.push_back(random_key());
    std::sort(keys.begin(), keys.end());
    std::vector<cluster::KeyRange> w;
    for (size_t i = 0; i + 1 < keys.size(); i += 2) {
      w.push_back(cluster::KeyRange{keys[i], keys[i + 1]});
    }
    return w;
  };
  auto overlapping = [&](size_t n) {
    std::vector<cluster::KeyRange> w;
    for (size_t i = 0; i < n; i++) {
      std::string a = random_key(), b = random_key();
      if (b < a) std::swap(a, b);
      w.push_back(cluster::KeyRange{a, b});
    }
    std::sort(w.begin(), w.end(), by_start);
    w.push_back(cluster::KeyRange{w[0].start, ""});  // runs to +inf
    return w;
  };
  auto unsorted = [&](size_t n) {
    std::vector<cluster::KeyRange> w = sorted_disjoint(n);
    std::reverse(w.begin(), w.end());
    std::swap(w[0], w[w.size() / 2]);
    return w;
  };
  auto region_spanning = [&](size_t) {
    return std::vector<cluster::KeyRange>{
        {std::string(1, '\x00') + Key(700), std::string(1, '\x02') + Key(50)},
        {std::string(1, '\x02') + Key(600), std::string(1, '\x04')},
        {"", ""}};
  };
  const std::vector<std::pair<
      const char*, std::function<std::vector<cluster::KeyRange>(size_t)>>>
      shapes = {{"sorted_disjoint", sorted_disjoint},
                {"overlapping", overlapping},
                {"unsorted", unsorted},
                {"region_spanning", region_spanning}};

  EvenValueFilter even;
  for (const auto& [name, make] : shapes) {
    for (int round = 0; round < 4; round++) {
      const std::vector<cluster::KeyRange> windows = make(12);
      const ScanFilter* filter = round % 2 == 0 ? nullptr : &even;
      for (size_t limit : {size_t{0}, size_t{3}}) {
        SCOPED_TRACE(std::string(name) + " round " + std::to_string(round) +
                     " limit " + std::to_string(limit));
        ScanStats want_stats;
        const auto want =
            OracleMultiScan(data, regions, windows, filter, limit, &want_stats);
        std::vector<cluster::Row> rows;
        cluster::CollectRowsSink sink(&rows);
        ScanStats stats;
        MultiScanPerf perf;
        std::vector<cluster::ClusterTable::RegionScanStat> breakdown;
        ASSERT_TRUE(table
                        ->MultiScan(windows, filter, limit, &sink, &stats,
                                    &breakdown, &perf)
                        .ok());
        std::vector<std::pair<std::string, std::string>> got;
        for (cluster::Row& row : rows) {
          got.emplace_back(std::move(row.key), std::move(row.value));
        }
        // Forks join in region order and each region streams its windows
        // in order, so sorted disjoint windows come out in key order.
        if (std::string(name) == "sorted_disjoint") {
          EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
        EXPECT_EQ(stats.scanned, want_stats.scanned);
        EXPECT_EQ(stats.matched, want_stats.matched);
        // One task per region, never one per (region, window).
        EXPECT_LE(breakdown.size(), regions.size());
        EXPECT_EQ(perf.seeks_issued + perf.seeks_saved, perf.windows);
      }
    }
  }
  ASSERT_TRUE(cluster_inst.DropTable("t").ok());
}

}  // namespace
}  // namespace tman::kv
