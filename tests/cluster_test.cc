#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <thread>

#include "cluster/cluster.h"
#include "common/coding.h"

namespace tman::cluster {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(uint8_t shard, uint64_t value) {
  std::string key(1, static_cast<char>(shard));
  PutBigEndian64(&key, value);
  return key;
}

TEST(ClusterTest, CreateGetDropTable) {
  Cluster cluster(TestDir("tables"), 3, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t1", 4).ok());
  EXPECT_FALSE(cluster.CreateTable("t1", 4).ok());  // duplicate
  EXPECT_NE(cluster.GetTable("t1"), nullptr);
  EXPECT_EQ(cluster.GetTable("missing"), nullptr);
  ASSERT_TRUE(cluster.DropTable("t1").ok());
  EXPECT_EQ(cluster.GetTable("t1"), nullptr);
}

TEST(ClusterTest, PutGetRoutesByShard) {
  Cluster cluster(TestDir("route"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint8_t shard = 0; shard < 4; shard++) {
    ASSERT_TRUE(
        table->Put(Key(shard, 100), std::string("v").append(std::to_string(shard)))
            .ok());
  }
  for (uint8_t shard = 0; shard < 4; shard++) {
    std::string value;
    ASSERT_TRUE(table->Get(Key(shard, 100), &value).ok());
    EXPECT_EQ(value, std::string("v").append(std::to_string(shard)));
  }
}

TEST(ClusterTest, MultiScanAcrossShards) {
  Cluster cluster(TestDir("scan"), 5, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 8).ok());
  ClusterTable* table = cluster.GetTable("t");

  std::vector<Row> rows;
  for (uint8_t shard = 0; shard < 8; shard++) {
    for (uint64_t v = 0; v < 100; v++) {
      rows.push_back(Row{Key(shard, v), "x"});
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());

  // One window per shard over values [10, 20).
  std::vector<KeyRange> windows;
  for (uint8_t shard = 0; shard < 8; shard++) {
    windows.push_back(KeyRange{Key(shard, 10), Key(shard, 20)});
  }
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  kv::ScanStats stats;
  ASSERT_TRUE(table->MultiScan(windows, nullptr, 0, &sink, &stats).ok());
  EXPECT_EQ(out.size(), 8u * 10);
  EXPECT_EQ(stats.scanned, 80u);
}

struct ValuePrefixFilter : public kv::ScanFilter {
  explicit ValuePrefixFilter(std::string p) : prefix(std::move(p)) {}
  bool Matches(const Slice&, const Slice& value) const override {
    return value.starts_with(prefix);
  }
  std::string prefix;
};

TEST(ClusterTest, PushdownVsClientSideFiltering) {
  Cluster cluster(TestDir("pushdown"), 3, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");

  std::vector<Row> rows;
  for (uint64_t v = 0; v < 200; v++) {
    for (uint8_t shard = 0; shard < 4; shard++) {
      rows.push_back(Row{Key(shard, v), v % 10 == 0 ? "hit" : "miss"});
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());

  std::vector<KeyRange> windows;
  for (uint8_t shard = 0; shard < 4; shard++) {
    windows.push_back(KeyRange{Key(shard, 0), Key(shard, 200)});
  }
  ValuePrefixFilter filter("hit");

  std::vector<Row> pushed;
  CollectRowsSink sink(&pushed);
  kv::ScanStats pushed_stats;
  ASSERT_TRUE(
      table->MultiScan(windows, &filter, 0, &sink, &pushed_stats).ok());

  std::vector<Row> shipped;
  kv::ScanStats shipped_stats;
  ASSERT_TRUE(
      table->ScanWithoutPushdown(windows, &filter, &shipped, &shipped_stats)
          .ok());

  // Same results either way; same rows touched in storage; but the
  // non-pushdown path ships every candidate to the client.
  EXPECT_EQ(pushed.size(), shipped.size());
  EXPECT_EQ(pushed.size(), 4u * 20);
  EXPECT_EQ(pushed_stats.scanned, shipped_stats.scanned);
  EXPECT_EQ(pushed_stats.matched, 80u);
}

TEST(ClusterTest, BatchPutGroupsAtomicallyPerShard) {
  Cluster cluster(TestDir("batch"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  std::vector<Row> rows = {{Key(0, 1), "a"}, {Key(1, 1), "b"},
                           {Key(0, 2), "c"}};
  ASSERT_TRUE(table->BatchPut(rows).ok());
  std::string value;
  EXPECT_TRUE(table->Get(Key(0, 2), &value).ok());
  EXPECT_EQ(value, "c");
}

TEST(ClusterTest, DeleteRemovesRow) {
  Cluster cluster(TestDir("delete"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  ASSERT_TRUE(table->Put(Key(0, 5), "v").ok());
  ASSERT_TRUE(table->Delete(Key(0, 5)).ok());
  std::string value;
  EXPECT_TRUE(table->Get(Key(0, 5), &value).IsNotFound());
}

TEST(ClusterTest, ScanLimitPerRange) {
  Cluster cluster(TestDir("limit"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 1).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 50; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), "x").ok());
  }
  std::vector<KeyRange> windows = {KeyRange{Key(0, 0), Key(0, 50)}};
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  ASSERT_TRUE(table->MultiScan(windows, nullptr, 7, &sink, nullptr).ok());
  EXPECT_EQ(out.size(), 7u);
}

TEST(ClusterTest, ScanLimitAppliesToEachRange) {
  Cluster cluster(TestDir("limit_multi"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 1).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 50; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), "x").ok());
  }
  // The limit is per range, not global: two disjoint windows with limit 7
  // each contribute up to 7 rows.
  std::vector<KeyRange> windows = {KeyRange{Key(0, 0), Key(0, 20)},
                                   KeyRange{Key(0, 20), Key(0, 50)}};
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  ASSERT_TRUE(table->MultiScan(windows, nullptr, 7, &sink, nullptr).ok());
  EXPECT_EQ(out.size(), 14u);
}

// Routing regression: a range whose shard bytes extend past num_shards must
// wrap onto the regions that actually host those bytes (byte % num_shards)
// instead of scanning nothing or every region.
TEST(ClusterTest, RoutingWrapsPastShardCount) {
  Cluster cluster(TestDir("route_wrap"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");
  // Keys with shard bytes 4..9 land on regions 0..3 via byte % 4.
  for (uint8_t b = 4; b <= 9; b++) {
    for (uint64_t v = 0; v < 5; v++) {
      ASSERT_TRUE(table->Put(Key(b, v), std::to_string(b)).ok());
    }
  }
  // [byte 5, byte 9): exactly the rows with shard bytes 5..8.
  std::vector<KeyRange> windows = {KeyRange{Key(5, 0), Key(9, 0)}};
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  ASSERT_TRUE(table->MultiScan(windows, nullptr, 0, &sink, nullptr).ok());
  ASSERT_EQ(out.size(), 4u * 5);
  for (const Row& row : out) {
    const uint8_t b = static_cast<uint8_t>(row.key[0]);
    EXPECT_GE(b, 5);
    EXPECT_LE(b, 8);
  }

  // A one-byte end key excludes its byte entirely ([byte 5, "\x08")).
  std::vector<KeyRange> exclusive = {
      KeyRange{Key(5, 0), std::string(1, '\x08')}};
  out.clear();
  ASSERT_TRUE(table->MultiScan(exclusive, nullptr, 0, &sink, nullptr).ok());
  ASSERT_EQ(out.size(), 3u * 5);
  for (const Row& row : out) {
    EXPECT_LE(static_cast<uint8_t>(row.key[0]), 7);
  }
}

// Forks that record the threads driving them, the keys they receive and
// when (on one scan-wide clock) their rows, their Finish and their Join
// happen. Join copies each fork's record out (forks die with the scan), in
// join order.
class RecordingForkSink : public ScanSink {
 public:
  struct Record {
    std::set<std::thread::id> threads;
    std::vector<std::string> keys;
    bool declined = false;
    int finishes = 0;
    std::thread::id finish_thread;
    uint64_t last_row_tick = 0;  // 0 = no row delivered
    uint64_t finish_tick = 0;
    uint64_t join_tick = 0;
  };

  // A fork whose region holds keys with shard byte `decline_shard` declines
  // its `decline_after`-th row (0 = never decline).
  explicit RecordingForkSink(uint8_t decline_shard = 0,
                             size_t decline_after = 0)
      : decline_shard_(decline_shard), decline_after_(decline_after) {}

  std::unique_ptr<kv::RowSink> Fork() override {
    forked_.insert(forks_made_);
    return std::make_unique<RecordingFork>(this, forks_made_++);
  }

  void Finish(kv::RowSink* fork) override {
    Record& r = static_cast<RecordingFork*>(fork)->record;
    r.finishes++;
    r.finish_thread = std::this_thread::get_id();
    r.finish_tick = Tick();
  }

  void Join(kv::RowSink* fork) override {
    auto* f = static_cast<RecordingFork*>(fork);
    EXPECT_EQ(forked_.erase(f->id), 1u) << "fork joined twice";
    f->record.join_tick = Tick();
    joined.push_back(std::move(f->record));
  }

  size_t forks_made() const { return forks_made_; }
  size_t unjoined() const { return forked_.size(); }

  // Checks the Finish contract on every joined fork: exactly one Finish, on
  // the thread that delivered the fork's rows, after its last row and
  // before the first Join.
  void ExpectEachForkFinishedOnceBeforeAnyJoin() const {
    uint64_t first_join = UINT64_MAX;
    for (const Record& r : joined) {
      first_join = std::min(first_join, r.join_tick);
    }
    for (size_t i = 0; i < joined.size(); i++) {
      const Record& r = joined[i];
      EXPECT_EQ(r.finishes, 1) << "fork " << i;
      EXPECT_LT(r.last_row_tick, r.finish_tick) << "fork " << i;
      EXPECT_LT(r.finish_tick, first_join) << "fork " << i;
      if (!r.threads.empty()) {
        EXPECT_EQ(r.threads.size(), 1u) << "fork " << i;
        EXPECT_EQ(*r.threads.begin(), r.finish_thread) << "fork " << i;
      }
    }
  }

  std::vector<Record> joined;  // in join order

 private:
  struct RecordingFork : public kv::RowSink {
    RecordingFork(RecordingForkSink* sink, size_t id) : sink(sink), id(id) {}
    bool Accept(const Slice& key, const Slice&) override {
      record.threads.insert(std::this_thread::get_id());
      record.keys.push_back(key.ToString());
      record.last_row_tick = sink->Tick();
      if (sink->decline_after_ != 0 &&
          static_cast<uint8_t>(key[0]) == sink->decline_shard_ &&
          record.keys.size() == sink->decline_after_) {
        record.declined = true;
        return false;
      }
      return true;
    }
    RecordingForkSink* sink;
    size_t id;
    Record record;
  };

  uint64_t Tick() { return ++clock_; }

  uint8_t decline_shard_;
  size_t decline_after_;
  size_t forks_made_ = 0;
  std::set<size_t> forked_;
  std::atomic<uint64_t> clock_{0};
};

TEST(ClusterTest, ForksRunOnOneThreadAndJoinInRegionKeyOrder) {
  Cluster cluster(TestDir("fork_join"), 4, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 8).ok());
  ClusterTable* table = cluster.GetTable("t");
  std::vector<Row> rows;
  std::vector<std::string> want;
  for (uint8_t shard = 0; shard < 8; shard++) {
    for (uint64_t v = 0; v < 300; v++) {
      rows.push_back(Row{Key(shard, v), "x"});
      if (v % 3 != 0) want.push_back(Key(shard, v));
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());

  // Two windows per shard, listed in reverse shard order: the join must
  // still hand the rows back in region key order.
  std::vector<KeyRange> windows;
  for (int shard = 7; shard >= 0; shard--) {
    const uint8_t b = static_cast<uint8_t>(shard);
    windows.push_back(KeyRange{Key(b, 0), Key(b, 150)});
    windows.push_back(KeyRange{Key(b, 150), Key(b, 300)});
  }
  struct NotMultipleOfThree : public kv::ScanFilter {
    bool Matches(const Slice& key, const Slice&) const override {
      return DecodeBigEndian64(key.data() + 1) % 3 != 0;
    }
  } filter;
  RecordingForkSink sink;
  std::vector<ClusterTable::RegionScanStat> breakdown;
  ASSERT_TRUE(
      table->MultiScan(windows, &filter, 0, &sink, nullptr, &breakdown).ok());

  // One fork per region task, each finished once on its task's thread
  // after its last row, and joined exactly once after every Finish.
  EXPECT_EQ(sink.forks_made(), 8u);
  EXPECT_EQ(breakdown.size(), 8u);
  EXPECT_EQ(sink.unjoined(), 0u);
  ASSERT_EQ(sink.joined.size(), 8u);
  sink.ExpectEachForkFinishedOnceBeforeAnyJoin();
  std::vector<std::string> got;
  for (size_t i = 0; i < sink.joined.size(); i++) {
    const RecordingForkSink::Record& r = sink.joined[i];
    EXPECT_EQ(r.threads.size(), 1u) << "fork " << i;
    for (const std::string& key : r.keys) {
      // Join order is region key order: the i-th fork holds shard i.
      EXPECT_EQ(static_cast<uint8_t>(key[0]), i);
      got.push_back(key);
    }
  }
  EXPECT_EQ(got, want);  // the oracle's rows, in key order
}

// A fork that declines a row stops every task of the scan, and the scan
// itself succeeds. With one server the calling thread runs the tasks one
// after another in region order, so the tasks after the declining one must
// deliver nothing; with four, tasks overlap and may deliver rows before the
// stop, but the declining fork sees no row past its decline. Every task
// still finishes its fork.
TEST(ClusterTest, DecliningForkStopsEveryTask) {
  for (const int servers : {1, 4}) {
    SCOPED_TRACE("servers " + std::to_string(servers));
    Cluster cluster(TestDir("sink_stop_" + std::to_string(servers)), servers,
                    kv::Options());
    ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
    ClusterTable* table = cluster.GetTable("t");
    std::vector<Row> rows;
    for (uint8_t shard = 0; shard < 4; shard++) {
      for (uint64_t v = 0; v < 2000; v++) {
        rows.push_back(Row{Key(shard, v), "x"});
      }
    }
    ASSERT_TRUE(table->BatchPut(rows).ok());

    std::vector<KeyRange> windows;
    for (uint8_t shard = 0; shard < 4; shard++) {
      windows.push_back(KeyRange{Key(shard, 0), Key(shard, 2000)});
    }
    RecordingForkSink sink(/*decline_shard=*/0, /*decline_after=*/5);
    kv::ScanStats stats;
    ASSERT_TRUE(table->MultiScan(windows, nullptr, 0, &sink, &stats).ok());
    ASSERT_EQ(sink.joined.size(), 4u);
    EXPECT_TRUE(sink.joined[0].declined);
    EXPECT_EQ(sink.joined[0].keys.size(), 5u);
    // Tasks ended by the shared stop flag, even ones that delivered no row,
    // still finish their forks.
    sink.ExpectEachForkFinishedOnceBeforeAnyJoin();
    if (servers == 1) {
      for (size_t i = 1; i < sink.joined.size(); i++) {
        EXPECT_TRUE(sink.joined[i].keys.empty()) << "region " << i;
      }
    }
    EXPECT_LT(stats.matched, rows.size());
  }
}

TEST(ClusterTest, ParallelBatchPutWritesEveryRegion) {
  Cluster cluster(TestDir("batch_parallel"), 3, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 8).ok());
  ClusterTable* table = cluster.GetTable("t");
  std::vector<Row> rows;
  for (uint8_t shard = 0; shard < 8; shard++) {
    for (uint64_t v = 0; v < 400; v++) {
      rows.push_back(Row{Key(shard, v), std::to_string(shard * 1000 + v)});
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());

  std::vector<KeyRange> windows;
  for (uint8_t shard = 0; shard < 8; shard++) {
    windows.push_back(KeyRange{Key(shard, 0), Key(shard, 400)});
  }
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  ASSERT_TRUE(table->MultiScan(windows, nullptr, 0, &sink, nullptr).ok());
  ASSERT_EQ(out.size(), rows.size());
  std::string value;
  ASSERT_TRUE(table->Get(Key(7, 399), &value).ok());
  EXPECT_EQ(value, "7399");
}

}  // namespace
}  // namespace tman::cluster
