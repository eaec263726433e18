// Storage-lifecycle benchmark: on-disk size of TMan's rows and bulk
// ingestion.
//
// Section 1 loads TMan's primary-table rows into one store: Lorry-like
// trajectories are bulk-loaded into a TMan, whose primary table keys them
// and encodes each whole trajectory through core::EncodeRecord (points
// column-coded), and every primary row is copied into the store. The store
// is compacted to its final shape and reports on-disk bytes per trajectory
// plus full-scan throughput (cold = first scan reads the blocks from the
// file, warm = the cache holds them; the median of several warm passes).
//
// Section 2 loads 24-byte GPS point rows into a 4-shard cluster table
// through BatchPut (WAL + memtable + flush + compaction to reach the same
// durable, compacted state) and through ClusterTable::BulkLoad
// (SstFileWriter + IngestExternalFile, no WAL / memtable / compaction
// debt), and reports rows/s for both. The two paths alternate, each load
// into a fresh cluster, for kLoadPairs pairs; the speedup is the median of
// the pairs' ratios.
//
// Flags:
//   --check   gate the results (CI smoke mode): every scan must see every
//             row back byte-identical, and the median speedup of bulk load
//             over BatchPut must be >= 10x rows/s. Exits nonzero on any
//             violation.
//
// Scale with TMAN_SCALE (default 1). Results land in BENCH_storage.json,
// with the git sha, build type and core count of the run.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/coding.h"
#include "common/random.h"
#include "kvstore/db.h"
#include "kvstore/options.h"

namespace tman::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// TMan's primary-table rows for `count` Lorry-like trajectories, in key
// order: bulk-loaded through TMan, then read back from its primary table.
std::vector<cluster::Row> PrimaryRows(size_t count) {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  std::unique_ptr<core::TMan> tman;
  std::vector<cluster::Row> rows;
  Status s = core::TMan::Open(DefaultOptions(spec),
                              BenchDir("storage_primary"), &tman);
  if (s.ok()) s = tman->BulkLoad(traj::Generate(spec, count, 4242));
  cluster::CollectRowsSink collect(&rows);
  if (s.ok()) {
    s = tman->primary_table()->MultiScan({cluster::KeyRange{"", ""}}, nullptr,
                                         0, &collect, nullptr);
  }
  if (!s.ok()) {
    fprintf(stderr, "primary rows: %s\n", s.ToString().c_str());
    exit(1);
  }
  std::sort(rows.begin(), rows.end(),
            [](const cluster::Row& a, const cluster::Row& b) {
              return a.key < b.key;
            });
  return rows;
}

struct StoreResult {
  uint64_t sst_bytes = 0;
  double bytes_per_trajectory = 0;
  double cold_scan_rows_per_sec = 0;
  double warm_scan_rows_per_sec = 0;
  bool roundtrip_ok = true;
};

uint64_t SstBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".sst") total += e.file_size();
  }
  return total;
}

StoreResult RunStore(const std::vector<cluster::Row>& rows) {
  StoreResult result;
  const std::string dir = BenchDir("storage_rows");
  kv::Options options;
  options.write_buffer_size = 4 * 1024 * 1024;
  options.block_cache_bytes = 256 * 1024 * 1024;  // warm scans fully cached

  std::unique_ptr<kv::DB> db;
  if (!kv::DB::Open(options, dir, &db).ok()) {
    result.roundtrip_ok = false;
    return result;
  }
  for (const cluster::Row& row : rows) {
    if (!db->Put(kv::WriteOptions(), row.key, row.value).ok()) {
      result.roundtrip_ok = false;
    }
  }
  db->Flush();
  db->CompactAll();
  result.sst_bytes = SstBytes(dir);
  result.bytes_per_trajectory =
      static_cast<double>(result.sst_bytes) / rows.size();

  // Full scans via the cursor API; the first (cold) pass reads every block
  // from the file, the warm passes read them straight out of the cache.
  // Every pass checks every row byte for byte.
  constexpr int kWarmPasses = 7;
  std::vector<double> warm_rates;
  for (int pass = 0; pass <= kWarmPasses; pass++) {
    const double start = Now();
    size_t seen = 0;
    std::unique_ptr<kv::Iterator> it(db->NewIterator(kv::ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      if (seen >= rows.size() || it->key() != Slice(rows[seen].key) ||
          it->value() != Slice(rows[seen].value)) {
        result.roundtrip_ok = false;
      }
      seen++;
    }
    const double secs = Now() - start;
    if (seen != rows.size()) result.roundtrip_ok = false;
    const double rate = rows.size() / secs;
    if (pass == 0) {
      result.cold_scan_rows_per_sec = rate;
    } else {
      warm_rates.push_back(rate);
    }
  }
  std::sort(warm_rates.begin(), warm_rates.end());
  result.warm_scan_rows_per_sec = warm_rates[warm_rates.size() / 2];
  return result;
}

// GPS-like point rows for the load-path section: fixed-width keys and
// 24-byte values (fixed64 timestamp, longitude bits, latitude bits) from a
// fixed sampling interval (with occasional clock jitter) and
// piecewise-constant velocity.
std::string RowKey(uint8_t shard, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%c%010d", 'a' + shard, i);
  return buf;
}

struct PointWalk {
  Random rnd;
  double lon = 116.3, lat = 39.9;
  double vlon = 0, vlat = 0;
  int64_t ts = 1400000000;
  int steps = 0;

  explicit PointWalk(uint32_t seed) : rnd(seed) {}

  std::string Next() {
    if (steps++ % 128 == 0) {  // turn: pick a new velocity
      vlon = rnd.UniformDouble(-3e-5, 3e-5);
      vlat = rnd.UniformDouble(-3e-5, 3e-5);
    }
    ts += 5 + (rnd.Uniform(50) == 0 ? 1 : 0);  // 5 s cadence, rare jitter
    lon += vlon;
    lat += vlat;
    std::string v;
    PutFixed64(&v, static_cast<uint64_t>(ts));
    PutFixed64(&v, std::bit_cast<uint64_t>(lon));
    PutFixed64(&v, std::bit_cast<uint64_t>(lat));
    return v;
  }
};

constexpr int kLoadPairs = 5;  // alternating BatchPut / bulk-load pairs

struct LoadResult {
  double seconds = 0;
  double rows_per_sec = 0;
  bool roundtrip_ok = true;
};

// Median of a few samples, exact (bench_util's Median buckets its input).
double ExactMedian(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Where the result comes from, as JSON members: the commit the build tree
// was configured at (bench/CMakeLists.txt), its build type and the host's
// core count.
std::string ProvenanceJson() {
  return std::string("\"git_sha\": \"") + TMAN_GIT_SHA +
         "\", \"build_type\": \"" + TMAN_BUILD_TYPE +
         "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency());
}

std::vector<cluster::Row> MakeClusterRows(int rows_per_shard) {
  std::vector<cluster::Row> rows;
  rows.reserve(4 * static_cast<size_t>(rows_per_shard));
  for (uint8_t shard = 0; shard < 4; shard++) {
    PointWalk walk(777u + shard);
    for (int i = 0; i < rows_per_shard; i++) {
      cluster::Row row;
      row.key = RowKey(shard, i);
      row.value = walk.Next();
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Backfill-shaped store options: in a real backfill the data volume dwarfs
// the memtable, so the write path pays repeated flushes plus compaction
// rewrite. The smoke workload scales the data down, so the memtable must
// scale down with it or the BatchPut baseline gets an unrealistically free
// ride (everything absorbed by one giant buffer, amplification hidden).
// Bulk load never touches the memtable, so the setting only shapes the
// baseline.
kv::Options BackfillOptions() {
  kv::Options options;
  options.write_buffer_size = 96 * 1024;
  return options;
}

LoadResult RunBatchPut(const std::vector<cluster::Row>& rows) {
  LoadResult result;
  cluster::Cluster cl(BenchDir("storage_batchput"), 4, BackfillOptions());
  cl.CreateTable("t", 4);
  cluster::ClusterTable* table = cl.GetTable("t");

  // Durability parity with BulkLoad: bulk load fsyncs every SSTable before
  // its MANIFEST install, so a crash mid-backfill keeps all completed
  // regions. The online path only matches that if each acknowledged batch
  // syncs the WAL; with sync=false a crash loses the entire unflushed load.
  kv::WriteOptions wo;
  wo.sync = true;

  const double start = Now();
  // Online ingest batches are small: points arrive from live vehicles and
  // are acknowledged in near-real-time, not accumulated into bulk chunks.
  const size_t batch = 100;
  for (size_t i = 0; i < rows.size(); i += batch) {
    std::vector<cluster::Row> slice(
        rows.begin() + static_cast<long>(i),
        rows.begin() + static_cast<long>(std::min(i + batch, rows.size())));
    if (!table->BatchPut(slice, wo).ok()) result.roundtrip_ok = false;
  }
  // Reach the same durable, compacted end state the bulk load produces.
  table->Flush();
  table->CompactAll();
  result.seconds = Now() - start;
  result.rows_per_sec = rows.size() / result.seconds;
  return result;
}

LoadResult RunBulkLoad(const std::vector<cluster::Row>& rows, bool check) {
  LoadResult result;
  cluster::Cluster cl(BenchDir("storage_bulkload"), 4, BackfillOptions());
  cl.CreateTable("t", 4);
  cluster::ClusterTable* table = cl.GetTable("t");

  const double start = Now();
  if (!table->BulkLoad(rows).ok()) result.roundtrip_ok = false;
  result.seconds = Now() - start;
  result.rows_per_sec = rows.size() / result.seconds;

  if (check) {
    // Every row must come back byte-identical through the ingested tables.
    for (size_t i = 0; i < rows.size(); i += 97) {
      std::string value;
      if (!table->Get(rows[i].key, &value).ok() || value != rows[i].value) {
        result.roundtrip_ok = false;
        break;
      }
    }
  }
  return result;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  using namespace tman::bench;

  bool check = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      fprintf(stderr, "usage: %s [--check]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<tman::cluster::Row> primary_rows =
      PrimaryRows(LorryCount());
  uint64_t record_bytes = 0;
  for (const tman::cluster::Row& row : primary_rows) {
    record_bytes += row.key.size() + row.value.size();
  }
  const double record_bytes_per_trajectory =
      static_cast<double>(record_bytes) / primary_rows.size();
  printf("Primary-row storage: %zu TMan primary rows (Lorry-like, "
         "%.0f B/trajectory as encoded records)\n\n",
         primary_rows.size(), record_bytes_per_trajectory);

  const StoreResult store = RunStore(primary_rows);

  PrintHeader({"compression", "sst bytes", "B/traj", "cold scan/s",
               "warm scan/s", "roundtrip"});
  PrintCell("none");
  PrintCell(store.sst_bytes);
  PrintCell(store.bytes_per_trajectory);
  PrintCell(store.cold_scan_rows_per_sec);
  PrintCell(store.warm_scan_rows_per_sec);
  PrintCell(store.roundtrip_ok ? "ok" : "MISMATCH");
  EndRow();

  const int rows_per_shard = 150000 * Scale();
  printf("\nBulk load vs BatchPut: %d rows, 4 shards, %d alternating pairs\n\n",
         4 * rows_per_shard, kLoadPairs);
  const std::vector<tman::cluster::Row> cluster_rows =
      MakeClusterRows(rows_per_shard);
  std::vector<double> batchput_rps, bulkload_rps, speedups;
  bool loads_ok = true;
  PrintHeader({"pair", "batchput s", "bulkload s", "speedup"});
  for (int pair = 0; pair < kLoadPairs; pair++) {
    const LoadResult batchput = RunBatchPut(cluster_rows);
    const LoadResult bulkload = RunBulkLoad(cluster_rows, check);
    loads_ok = loads_ok && batchput.roundtrip_ok && bulkload.roundtrip_ok;
    batchput_rps.push_back(batchput.rows_per_sec);
    bulkload_rps.push_back(bulkload.rows_per_sec);
    speedups.push_back(bulkload.rows_per_sec / batchput.rows_per_sec);
    PrintCell(std::to_string(pair));
    PrintCell(batchput.seconds);
    PrintCell(bulkload.seconds);
    PrintCell(speedups.back());
    EndRow();
  }
  const double speedup = ExactMedian(speedups);
  printf("\nmedian rows/s: batchput %.0f, bulkload %.0f; median speedup "
         "%.2fx (pairs %.2f-%.2fx)\n",
         ExactMedian(batchput_rps), ExactMedian(bulkload_rps), speedup,
         *std::min_element(speedups.begin(), speedups.end()),
         *std::max_element(speedups.begin(), speedups.end()));

  std::string pair_speedups;
  for (double r : speedups) {
    if (!pair_speedups.empty()) pair_speedups += ", ";
    pair_speedups += std::to_string(r);
  }
  FILE* json = fopen("BENCH_storage.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"benchmark\": \"storage_lifecycle\",\n"
            "  %s,\n"
            "  \"dataset\": \"tman_primary_rows_lorry_like\",\n"
            "  \"trajectories\": %zu,\n"
            "  \"record_bytes_per_trajectory\": %.1f,\n"
            "  \"compression\": [\n"
            "    {\"type\": \"none\", \"sst_bytes\": %llu, "
            "\"bytes_per_trajectory\": %.1f, "
            "\"cold_scan_rows_per_sec\": %.0f, "
            "\"warm_scan_rows_per_sec\": %.0f, \"roundtrip_ok\": %s}\n"
            "  ],\n"
            "  \"bulk_load\": {\n"
            "    \"rows\": %d,\n"
            "    \"pairs\": %d,\n"
            "    \"batchput_rows_per_sec\": %.0f,\n"
            "    \"bulkload_rows_per_sec\": %.0f,\n"
            "    \"pair_speedups\": [%s],\n"
            "    \"speedup\": %.2f\n"
            "  },\n"
            "  \"checked\": %s\n"
            "}\n",
            ProvenanceJson().c_str(), primary_rows.size(),
            record_bytes_per_trajectory,
            static_cast<unsigned long long>(store.sst_bytes),
            store.bytes_per_trajectory, store.cold_scan_rows_per_sec,
            store.warm_scan_rows_per_sec,
            store.roundtrip_ok ? "true" : "false", 4 * rows_per_shard,
            kLoadPairs, ExactMedian(batchput_rps), ExactMedian(bulkload_rps),
            pair_speedups.c_str(), speedup, check ? "true" : "false");
    fclose(json);
    printf("\nwrote BENCH_storage.json\n");
  }

  if (check) {
    int failures = 0;
    if (!store.roundtrip_ok) {
      fprintf(stderr, "CHECK FAIL: primary-row store scan mismatch\n");
      failures++;
    }
    if (!loads_ok) {
      fprintf(stderr, "CHECK FAIL: cluster load path error\n");
      failures++;
    }
    if (speedup < 10.0) {
      fprintf(stderr, "CHECK FAIL: median bulk load speedup %.2fx < 10x\n",
              speedup);
      failures++;
    }
    if (failures > 0) return 1;
    printf("check: all storage gates passed\n");
  }
  return 0;
}
