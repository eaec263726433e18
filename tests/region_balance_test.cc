// Dynamic region management tests: range routing edge cases, online
// split/merge correctness (including under concurrent writers and
// scanners), the RegionBalancer policy, topology events, manifest
// recovery, and fault-injected crash-mid-split scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/region_balancer.h"
#include "common/coding.h"
#include "kvstore/fault_env.h"
#include "obs/event_log.h"

namespace tman::cluster {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_region_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(uint8_t shard, uint64_t value) {
  std::string key(1, static_cast<char>(shard));
  PutBigEndian64(&key, value);
  return key;
}

// Deterministic value for a key, so any scanner can verify rows without
// access to the writer's state.
std::string ValueFor(const std::string& key) { return "v:" + key; }

std::vector<Row> FullScan(ClusterTable* table) {
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  Status s = table->MultiScan({KeyRange{"", ""}}, nullptr, 0, &sink, nullptr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  return out;
}

// The per-region ranges reported by GetPerRegionStats must partition the
// keyspace: first starts at "", last ends at "", each end chains to the
// next start.
void ExpectRangesPartitionKeyspace(ClusterTable* table) {
  const auto stats = table->GetPerRegionStats();
  ASSERT_FALSE(stats.empty());
  EXPECT_TRUE(stats.front().range.start.empty());
  EXPECT_TRUE(stats.back().range.end.empty());
  for (size_t i = 0; i + 1 < stats.size(); i++) {
    EXPECT_FALSE(stats[i].range.end.empty());
    EXPECT_EQ(stats[i].range.end, stats[i + 1].range.start);
  }
}

// ---------------------------------------------------------------------------
// Routing-table edge cases

TEST(RegionRoutingTest, SingleRegionOwnsWholeKeyspace) {
  Cluster cluster(TestDir("single"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 1).ok());
  ClusterTable* table = cluster.GetTable("t");
  EXPECT_EQ(table->num_shards(), 1);

  // Keys with arbitrary leading bytes — far beyond any "shard byte" — all
  // land in the one region whose range is ["", "").
  const std::vector<std::string> keys = {std::string(1, '\x00'), "middle",
                                         "\x7f@", "\xff\xff\xff"};
  for (const auto& k : keys) ASSERT_TRUE(table->Put(k, ValueFor(k)).ok());
  for (const auto& k : keys) {
    std::string value;
    ASSERT_TRUE(table->Get(k, &value).ok()) << "key " << k;
    EXPECT_EQ(value, ValueFor(k));
  }
  EXPECT_EQ(FullScan(table).size(), keys.size());
  ExpectRangesPartitionKeyspace(table);
}

TEST(RegionRoutingTest, BoundaryExactStartKeysRouteRight) {
  Cluster cluster(TestDir("boundary"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");

  // A key equal to a region's start key belongs to that region, not its
  // left neighbour (half-open ranges). Region i owns [\xi, \xi+1).
  ASSERT_TRUE(table->Put(std::string(1, '\x01'), "exact1").ok());
  ASSERT_TRUE(table->Put(std::string("\x01\x00", 2), "inside1").ok());
  ASSERT_TRUE(table->Put(std::string(1, '\x02'), "exact2").ok());
  ASSERT_TRUE(table->Put(std::string("\x00\xff", 2), "in0").ok());
  ASSERT_TRUE(table->Put("\xff", "in3").ok());

  const auto stats = table->GetPerRegionStats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].writes_total, 1u);  // "\x00\xff"
  EXPECT_EQ(stats[1].writes_total, 2u);  // "\x01", "\x01\x00"
  EXPECT_EQ(stats[2].writes_total, 1u);  // "\x02"
  EXPECT_EQ(stats[3].writes_total, 1u);  // "\xff" (last range end = infinity)

  std::string value;
  ASSERT_TRUE(table->Get(std::string(1, '\x01'), &value).ok());
  EXPECT_EQ(value, "exact1");
  ASSERT_TRUE(table->Get("\xff", &value).ok());
  EXPECT_EQ(value, "in3");
}

TEST(RegionRoutingTest, EmptyEndRangeScansToInfinity) {
  Cluster cluster(TestDir("infinity"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");
  // The last region's range is [\x03, ""): every key above \x03 lives
  // there, no matter how large.
  ASSERT_TRUE(table->Put("\x03zzz", "a").ok());
  ASSERT_TRUE(table->Put("\xfe\xff", "b").ok());
  std::vector<Row> out;
  CollectRowsSink sink(&out);
  ASSERT_TRUE(table
                  ->MultiScan({KeyRange{std::string(1, '\x03'), ""}}, nullptr,
                              0, &sink, nullptr)
                  .ok());
  EXPECT_EQ(out.size(), 2u);
}

// ---------------------------------------------------------------------------
// Split

TEST(RegionSplitTest, SplitPreservesEveryRowAndPartitionsRange) {
  Cluster cluster(TestDir("split_rows"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");

  std::vector<Row> rows;
  for (uint64_t v = 0; v < 800; v++) rows.push_back(Row{Key(0, v), "x"});
  ASSERT_TRUE(table->BatchPut(rows).ok());
  const auto before = FullScan(table);
  const uint64_t gen_before = table->routing_generation();

  ASSERT_TRUE(table->Flush().ok());
  Status s = table->SplitRegion(0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(table->num_shards(), 3);
  EXPECT_EQ(table->splits_performed(), 1u);
  EXPECT_EQ(table->routing_generation(), gen_before + 1);
  ExpectRangesPartitionKeyspace(table);

  // The median split must leave real data on both sides.
  const auto stats = table->GetPerRegionStats();
  EXPECT_GT(stats[0].range.end, stats[0].range.start);
  EXPECT_GT(stats[1].range.end, stats[1].range.start);

  const auto after = FullScan(table);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); i++) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].value, before[i].value);
  }

  // Writes and reads keep working on both halves, routed by the new table.
  ASSERT_TRUE(table->Put(Key(0, 10), "updated-low").ok());
  ASSERT_TRUE(table->Put(Key(0, 790), "updated-high").ok());
  std::string value;
  ASSERT_TRUE(table->Get(Key(0, 10), &value).ok());
  EXPECT_EQ(value, "updated-low");
  ASSERT_TRUE(table->Get(Key(0, 790), &value).ok());
  EXPECT_EQ(value, "updated-high");
}

TEST(RegionSplitTest, SplitValidatesKeyAndRegion) {
  Cluster cluster(TestDir("split_args"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  // Split key must be strictly inside the region's range.
  EXPECT_TRUE(table->SplitRegionAt(0, "").IsInvalidArgument());
  EXPECT_TRUE(
      table->SplitRegionAt(0, std::string(1, '\x01')).IsInvalidArgument());
  EXPECT_TRUE(table->SplitRegionAt(0, "\x42").IsInvalidArgument());
  EXPECT_TRUE(table->SplitRegionAt(99, "\x00\x01").IsNotFound());
  // An empty region has no median to sample.
  EXPECT_TRUE(table->SplitRegion(0).IsNotFound());
  EXPECT_EQ(table->num_shards(), 2);
  EXPECT_EQ(table->splits_performed(), 0u);
}

TEST(RegionSplitTest, SplitInfinityEndRegionKeepsEmptyEnd) {
  Cluster cluster(TestDir("split_inf"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 1).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 200; v++) {
    ASSERT_TRUE(table->Put(Key(static_cast<uint8_t>(v % 8), v),
                           ValueFor(Key(static_cast<uint8_t>(v % 8), v)))
                    .ok());
  }
  ASSERT_TRUE(table->SplitRegionAt(0, std::string(1, '\x04')).ok());
  const auto stats = table->GetPerRegionStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].range.start.empty());
  EXPECT_EQ(stats[0].range.end, std::string(1, '\x04'));
  EXPECT_EQ(stats[1].range.start, std::string(1, '\x04'));
  EXPECT_TRUE(stats[1].range.end.empty());  // still to infinity
  EXPECT_EQ(FullScan(table).size(), 200u);
}

// ---------------------------------------------------------------------------
// Merge

TEST(RegionMergeTest, MergeRestoresRangeAndKeepsRows) {
  Cluster cluster(TestDir("merge_rows"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 600; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), ValueFor(Key(0, v))).ok());
  }
  ASSERT_TRUE(table->SplitRegionAt(0, Key(0, 300)).ok());
  ASSERT_EQ(table->num_shards(), 3);
  // New writes land on both sides of the split before the merge.
  ASSERT_TRUE(table->Put(Key(0, 100), "new-low").ok());
  ASSERT_TRUE(table->Put(Key(0, 500), "new-high").ok());

  const auto stats = table->GetPerRegionStats();
  Status s = table->MergeRegions(stats[0].shard, stats[1].shard);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(table->num_shards(), 2);
  EXPECT_EQ(table->merges_performed(), 1u);
  ExpectRangesPartitionKeyspace(table);

  const auto rows = FullScan(table);
  EXPECT_EQ(rows.size(), 600u);
  std::string value;
  ASSERT_TRUE(table->Get(Key(0, 100), &value).ok());
  EXPECT_EQ(value, "new-low");
  ASSERT_TRUE(table->Get(Key(0, 500), &value).ok());
  EXPECT_EQ(value, "new-high");
}

TEST(RegionMergeTest, MergeRequiresAdjacency) {
  Cluster cluster(TestDir("merge_adj"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");
  EXPECT_TRUE(table->MergeRegions(0, 2).IsInvalidArgument());
  EXPECT_TRUE(table->MergeRegions(0, 99).IsNotFound());
  // Argument order is free for an adjacent pair.
  EXPECT_TRUE(table->MergeRegions(1, 0).ok());
  EXPECT_EQ(table->num_shards(), 3);
}

// A key deleted in the right region must stay deleted after the merge,
// even though the left store may still physically hold a stale pre-split
// copy of it (lazy reclamation had not run yet).
TEST(RegionMergeTest, MergeDoesNotResurrectStaleOrDeletedRows) {
  Cluster cluster(TestDir("merge_stale"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 400; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), "old").ok());
  }
  // Split; the left store still holds stale copies of [200, 400) until a
  // compaction reclaims them (deliberately not forced here).
  ASSERT_TRUE(table->SplitRegionAt(0, Key(0, 200)).ok());
  // Mutate the migrated half in its new region: one delete, one overwrite.
  ASSERT_TRUE(table->Delete(Key(0, 250)).ok());
  ASSERT_TRUE(table->Put(Key(0, 300), "newer").ok());

  const auto stats = table->GetPerRegionStats();
  ASSERT_TRUE(table->MergeRegions(stats[0].shard, stats[1].shard).ok());

  std::string value;
  EXPECT_TRUE(table->Get(Key(0, 250), &value).IsNotFound())
      << "deleted row resurrected by merge";
  ASSERT_TRUE(table->Get(Key(0, 300), &value).ok());
  EXPECT_EQ(value, "newer") << "stale pre-split version won over the update";
  EXPECT_EQ(FullScan(table).size(), 399u);  // 400 - 1 deleted
}

// ---------------------------------------------------------------------------
// Concurrency: split/merge under live writers and scanners

TEST(RegionConcurrencyTest, SplitAndMergeUnderConcurrentWritesAndScans) {
  Cluster cluster(TestDir("concurrent"), 4, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");

  // Writer: unique keys spread over the whole keyspace, each written once
  // with a value derivable from the key (so scanners can verify rows
  // without synchronizing with the writer). Alongside, a batch puts a
  // temporary key and the previous one is deleted, so puts and deletes
  // that land in a migrating range must be teed and replayed for the
  // temporaries to vanish.
  constexpr int kKeys = 3000;
  auto temp_key = [](int i) {
    return Key(static_cast<uint8_t>((i * 53) % 8),
               (uint64_t{1} << 20) + static_cast<uint64_t>(i));
  };
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kKeys; i++) {
      const std::string k = Key(static_cast<uint8_t>((i * 37) % 8),
                                static_cast<uint64_t>(i));
      Status s = table->Put(k, ValueFor(k));
      ASSERT_TRUE(s.ok()) << s.ToString();
      const std::string t = temp_key(i);
      s = table->BatchPut({Row{t, ValueFor(t)}});
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (i > 0) {
        s = table->Delete(temp_key(i - 1));
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
    Status s = table->Delete(temp_key(kKeys - 1));
    ASSERT_TRUE(s.ok()) << s.ToString();
    done.store(true);
  });

  // Scanner: full-range scans must never observe a duplicate key or a
  // wrong value, no matter how the topology shifts mid-scan.
  std::thread scanner([&] {
    while (!done.load()) {
      std::vector<Row> out;
      CollectRowsSink sink(&out);
      Status s =
          table->MultiScan({KeyRange{"", ""}}, nullptr, 0, &sink, nullptr);
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::set<std::string> seen;
      for (const Row& row : out) {
        EXPECT_TRUE(seen.insert(row.key).second)
            << "duplicate key in one scan";
        EXPECT_EQ(row.value, ValueFor(row.key));
      }
    }
  });

  // Balancer stand-in: splits and merges while both threads run.
  const std::string mid0 = Key(0, 1u << 20);
  const std::string mid1 = Key(4, 1u << 20);
  int cycles = 0;
  while (!done.load() && cycles < 6) {
    Status s = table->SplitRegionAt(0, cycles % 2 == 0 ? mid0 : mid1);
    // The split key alternates between region 0's and region 1's range;
    // pick whichever region owns it this cycle.
    if (s.IsInvalidArgument() || s.IsNotFound()) {
      s = table->SplitRegionAt(1, cycles % 2 == 0 ? mid0 : mid1);
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    const auto stats = table->GetPerRegionStats();
    // Merge the freshly created boundary back so the next cycle splits
    // again from a 2-region layout.
    size_t idx = 0;
    for (size_t i = 0; i + 1 < stats.size(); i++) {
      if (stats[i].range.end == (cycles % 2 == 0 ? mid0 : mid1)) idx = i;
    }
    s = table->MergeRegions(stats[idx].shard, stats[idx + 1].shard);
    ASSERT_TRUE(s.ok()) << s.ToString();
    cycles++;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  writer.join();
  scanner.join();
  EXPECT_GE(cycles, 1);

  // Differential check: the final table holds exactly the written keys.
  const auto rows = FullScan(table);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kKeys));
  std::set<std::string> expected;
  for (int i = 0; i < kKeys; i++) {
    expected.insert(
        Key(static_cast<uint8_t>((i * 37) % 8), static_cast<uint64_t>(i)));
  }
  for (const Row& row : rows) {
    EXPECT_EQ(expected.count(row.key), 1u);
    EXPECT_EQ(row.value, ValueFor(row.key));
  }
}

// Bulk loads racing splits and merges. A load's rows inside a migrating
// range are teed whether the region ingests them as a file or, when its
// store refuses the file, writes them as batches, so the moved region gets
// them either way. Each load covers a key range of its own, inside one of
// the two ranges the splits move, and goes in as a file until a migration
// copies that range into one file spanning later loads' keys; from then
// on, and for every fourth load, which repeats the previous one, the
// region refuses the file. Rows put beforehand, above every load's keys,
// make each migration's copy take long enough for loads to land during
// it; loads run until the splits and merges are done.
TEST(RegionConcurrencyTest, BulkLoadsUnderSplitAndMergeLandOnce) {
  Cluster cluster(TestDir("bulk_concurrent"), 4, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");

  std::vector<Row> before;
  for (uint64_t i = 0; i < 40000; i++) {
    const std::string k = Key(i % 2 == 0 ? 0 : 4, (1u << 21) + i);
    before.push_back(Row{k, ValueFor(k)});
  }
  ASSERT_TRUE(table->BatchPut(before).ok());
  ASSERT_TRUE(table->Flush().ok());

  constexpr int kRowsPerLoad = 25;
  auto load_rows = [](int load) {
    std::vector<Row> rows;
    for (int j = 0; j < kRowsPerLoad; j++) {
      const std::string k =
          Key(load % 2 == 0 ? 0 : 4,
              (1u << 20) + static_cast<uint64_t>(load) * kRowsPerLoad + j);
      rows.push_back(Row{k, ValueFor(k)});
    }
    return rows;
  };
  std::atomic<bool> stop{false};
  int loads = 0;
  std::thread loader([&] {
    while (!stop.load() || loads < 8) {
      Status s = table->BulkLoad(load_rows(loads));
      ASSERT_TRUE(s.ok()) << s.ToString();
      if (loads % 4 == 3) {
        s = table->BulkLoad(load_rows(loads - 1));
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      loads++;
    }
  });

  const std::string mid0 = Key(0, 1u << 20);
  const std::string mid1 = Key(4, 1u << 20);
  for (int cycle = 0; cycle < 8; cycle++) {
    Status s = table->SplitRegionAt(0, cycle % 2 == 0 ? mid0 : mid1);
    if (s.IsInvalidArgument() || s.IsNotFound()) {
      s = table->SplitRegionAt(1, cycle % 2 == 0 ? mid0 : mid1);
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    const auto stats = table->GetPerRegionStats();
    size_t idx = 0;
    for (size_t i = 0; i + 1 < stats.size(); i++) {
      if (stats[i].range.end == (cycle % 2 == 0 ? mid0 : mid1)) idx = i;
    }
    s = table->MergeRegions(stats[idx].shard, stats[idx + 1].shard);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  loader.join();

  const auto rows = FullScan(table);
  ASSERT_EQ(rows.size(),
            before.size() + static_cast<size_t>(loads) * kRowsPerLoad);
  std::set<std::string> expected;
  for (const Row& row : before) expected.insert(row.key);
  for (int load = 0; load < loads; load++) {
    for (const Row& row : load_rows(load)) expected.insert(row.key);
  }
  for (const Row& row : rows) {
    EXPECT_EQ(expected.count(row.key), 1u);
    EXPECT_EQ(row.value, ValueFor(row.key));
  }
  EXPECT_GT(table->GetStorageStats().files_ingested, 0u);
}

// ---------------------------------------------------------------------------
// RegionBalancer policy

TEST(RegionBalancerTest, SplitsHotRegionThenMergesColdPair) {
  Cluster cluster(TestDir("balancer"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 4).ok());
  ClusterTable* table = cluster.GetTable("t");

  RegionBalancerOptions opts;
  opts.interval_seconds = 0;  // manual ticks
  opts.min_tick_writes = 100;
  opts.split_share = 0.5;
  opts.min_split_writes = 500;
  opts.min_split_bytes = 4 * 1024;
  opts.merge_share = 0.05;
  opts.min_regions = 2;
  opts.max_regions = 8;
  RegionBalancer balancer({table}, opts);

  // Idle guard: no writes yet, a tick must not churn the topology.
  EXPECT_EQ(balancer.Tick(), 0);
  EXPECT_EQ(balancer.ticks(), 1u);

  // All traffic into region 0 -> its share is ~1.0, far over split_share.
  std::vector<Row> hot;
  for (uint64_t v = 0; v < 3000; v++) {
    hot.push_back(Row{Key(0, v), "payload-payload-payload"});
  }
  ASSERT_TRUE(table->BatchPut(hot).ok());
  ASSERT_TRUE(table->Flush().ok());  // sstable_bytes feeds the split gate
  EXPECT_EQ(balancer.Tick(), 1);
  EXPECT_EQ(balancer.splits(), 1u);
  EXPECT_EQ(table->num_shards(), 5);
  EXPECT_TRUE(balancer.last_error().ok()) << balancer.last_error().ToString();

  // Now write evenly to the OTHER regions: the two halves of old region 0
  // both go cold (share 0), so the balancer merges them back.
  std::vector<Row> cold;
  for (uint64_t v = 0; v < 900; v++) {
    cold.push_back(Row{Key(static_cast<uint8_t>(1 + v % 3), v), "x"});
  }
  ASSERT_TRUE(table->BatchPut(cold).ok());
  EXPECT_EQ(balancer.Tick(), 1);
  EXPECT_EQ(balancer.merges(), 1u);
  EXPECT_EQ(table->num_shards(), 4);

  // Scans see every row through all of it.
  EXPECT_EQ(FullScan(table).size(), 3000u + 900u);
}

TEST(RegionBalancerTest, RespectsRegionCountGuardrails) {
  Cluster cluster(TestDir("guardrails"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");

  RegionBalancerOptions opts;
  opts.interval_seconds = 0;
  opts.min_tick_writes = 1;
  opts.split_share = 0.5;
  opts.min_split_writes = 1;
  opts.min_split_bytes = 1;
  opts.max_regions = 2;  // already at the cap: the hot region cannot split
  RegionBalancer balancer({table}, opts);

  std::vector<Row> rows;
  for (uint64_t v = 0; v < 500; v++) rows.push_back(Row{Key(0, v), "x"});
  ASSERT_TRUE(table->BatchPut(rows).ok());
  ASSERT_TRUE(table->Flush().ok());
  EXPECT_EQ(balancer.Tick(), 0);
  EXPECT_EQ(table->num_shards(), 2);
  EXPECT_EQ(balancer.splits(), 0u);
}

// ---------------------------------------------------------------------------
// Topology events

TEST(RegionEventTest, SplitAndMergeEmitEvents) {
  Cluster cluster(TestDir("events"), 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  obs::EventLog log(16);
  table->set_event_log(&log);

  for (uint64_t v = 0; v < 300; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), "x").ok());
  }
  ASSERT_TRUE(table->SplitRegionAt(0, Key(0, 150)).ok());
  auto stats = table->GetPerRegionStats();
  ASSERT_TRUE(table->MergeRegions(stats[0].shard, stats[1].shard).ok());

  const auto events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "region_split");
  EXPECT_EQ(events[1].type, "region_merge");
  auto field = [](const obs::Event& e, const std::string& k) -> std::string {
    for (const auto& [key, value] : e.fields) {
      if (key == k) return value;
    }
    return "<missing>";
  };
  EXPECT_NE(field(events[0], "split_key"), "<missing>");
  EXPECT_NE(field(events[0], "left_range"), "<missing>");
  EXPECT_NE(field(events[0], "right_range"), "<missing>");
  EXPECT_EQ(field(events[0], "generation"), "2");
  const uint64_t migrated =
      std::stoull(field(events[0], "migrated_rows"));
  EXPECT_GT(migrated, 0u);
  EXPECT_NE(field(events[1], "merged_range"), "<missing>");
  EXPECT_EQ(field(events[1], "generation"), "3");
}

// ---------------------------------------------------------------------------
// Manifest recovery and fault injection

TEST(RegionRecoveryTest, ReopenRestoresSplitTopology) {
  const std::string dir = TestDir("reopen");
  {
    Cluster cluster(dir, 2, kv::Options());
    ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
    ClusterTable* table = cluster.GetTable("t");
    for (uint64_t v = 0; v < 400; v++) {
      ASSERT_TRUE(table->Put(Key(0, v), ValueFor(Key(0, v))).ok());
    }
    ASSERT_TRUE(table->SplitRegionAt(0, Key(0, 200)).ok());
    ASSERT_TRUE(table->Flush().ok());
  }
  Cluster cluster(dir, 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  EXPECT_EQ(table->num_shards(), 3);
  EXPECT_EQ(table->routing_generation(), 2u);
  ExpectRangesPartitionKeyspace(table);
  const auto rows = FullScan(table);
  ASSERT_EQ(rows.size(), 400u);
  for (const Row& row : rows) EXPECT_EQ(row.value, ValueFor(row.key));
}

TEST(RegionRecoveryTest, ReopenSweepsOrphanDirsAndTempFiles) {
  const std::string dir = TestDir("sweep");
  {
    Cluster cluster(dir, 2, kv::Options());
    ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
    ClusterTable* table = cluster.GetTable("t");
    for (uint64_t v = 0; v < 300; v++) {
      ASSERT_TRUE(table->Put(Key(0, v), "x").ok());
    }
    ASSERT_TRUE(table->SplitRegionAt(0, Key(0, 150)).ok());
    ASSERT_TRUE(table->Flush().ok());
  }
  // A torn split can leave an unreferenced region directory and a stray
  // manifest temp file; a reopen must sweep both.
  const std::string table_dir = dir + "/t";
  std::filesystem::create_directories(table_dir + "/region-99");
  std::ofstream(table_dir + "/region-99/junk.sst") << "junk";
  std::ofstream(table_dir + "/ROUTING.tmp") << "half-written";

  Cluster cluster(dir, 2, kv::Options());
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  EXPECT_FALSE(std::filesystem::exists(table_dir + "/region-99"));
  EXPECT_FALSE(std::filesystem::exists(table_dir + "/ROUTING.tmp"));
  EXPECT_EQ(FullScan(cluster.GetTable("t")).size(), 300u);
}

TEST(RegionFaultTest, SplitFailsCleanlyWhenManifestWriteFails) {
  kv::FaultInjectionEnv fault(kv::Env::Default());
  kv::Options options;
  options.env = &fault;
  Cluster cluster(TestDir("fault_manifest"), 2, options);
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  for (uint64_t v = 0; v < 400; v++) {
    ASSERT_TRUE(table->Put(Key(0, v), ValueFor(Key(0, v))).ok());
  }
  ASSERT_TRUE(table->Flush().ok());
  const uint64_t gen = table->routing_generation();

  // The manifest append fails mid-split: the split must abort without
  // changing routing, losing rows, or leaving the table gated.
  fault.FailAppends("ROUTING", 1);
  Status s = table->SplitRegionAt(0, Key(0, 200));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(table->routing_generation(), gen);
  EXPECT_EQ(table->num_shards(), 2);
  EXPECT_EQ(table->splits_performed(), 0u);
  EXPECT_EQ(FullScan(table).size(), 400u);
  ASSERT_TRUE(table->Put(Key(0, 500), ValueFor(Key(0, 500))).ok());

  // Same for the publish rename.
  fault.ClearFaults();
  fault.FailRenames(1);
  s = table->SplitRegionAt(0, Key(0, 200));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(table->routing_generation(), gen);
  EXPECT_EQ(table->num_shards(), 2);

  // With faults cleared, the retry succeeds and nothing was lost.
  fault.ClearFaults();
  s = table->SplitRegionAt(0, Key(0, 200));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(table->routing_generation(), gen + 1);
  EXPECT_EQ(table->num_shards(), 3);
  const auto rows = FullScan(table);
  ASSERT_EQ(rows.size(), 401u);
  for (const Row& row : rows) EXPECT_EQ(row.value, ValueFor(row.key));
}

TEST(RegionFaultTest, CrashMidSplitRecoversConsistentRouting) {
  const std::string dir = TestDir("fault_crash");
  kv::FaultInjectionEnv fault(kv::Env::Default());
  kv::Options options;
  options.env = &fault;
  {
    Cluster cluster(dir, 2, options);
    ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
    ClusterTable* table = cluster.GetTable("t");
    for (uint64_t v = 0; v < 400; v++) {
      ASSERT_TRUE(table->Put(Key(0, v), ValueFor(Key(0, v))).ok());
    }
    ASSERT_TRUE(table->Flush().ok());  // make the rows crash-durable

    // Power loss mid-split: every mutating operation fails from here on.
    fault.Crash();
    Status s = table->SplitRegionAt(0, Key(0, 200));
    EXPECT_FALSE(s.ok());
    // The dying process still reads consistently.
    EXPECT_EQ(table->num_shards(), 2);
  }
  ASSERT_TRUE(fault.DropUnsyncedAndReset().ok());

  // Reopen against the surviving state: pre-split routing, all rows, and
  // the split retry succeeds.
  Cluster cluster(dir, 2, options);
  ASSERT_TRUE(cluster.CreateTable("t", 2).ok());
  ClusterTable* table = cluster.GetTable("t");
  EXPECT_EQ(table->num_shards(), 2);
  EXPECT_EQ(table->routing_generation(), 1u);
  ExpectRangesPartitionKeyspace(table);
  auto rows = FullScan(table);
  ASSERT_EQ(rows.size(), 400u);
  for (const Row& row : rows) EXPECT_EQ(row.value, ValueFor(row.key));

  Status s = table->SplitRegionAt(0, Key(0, 200));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(table->num_shards(), 3);
  EXPECT_EQ(table->routing_generation(), 2u);
  EXPECT_EQ(FullScan(table).size(), 400u);
}

}  // namespace
}  // namespace tman::cluster
