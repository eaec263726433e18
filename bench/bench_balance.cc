// Region-balancer A/B benchmark: skew-aware ingest + query tails.
//
// Four runs over the same cluster-table code path: {uniform, zipf} origins
// x {balancer off, balancer on}. Rows are keyed by the trip's origin cell
// on a 4096x4096 grid over the city core, with the cell's top two bits as
// the leading key byte — so the 4 initial regions are perfectly balanced
// under uniform origins, while the Zipfian city-hotspot workload
// (traj::CityHotspotSpec) concentrates ~half of all writes into one
// region. The balancer (driven by manual Tick() every few batches, so the
// runs are deterministic) must detect the hot region and split it online;
// ingest continues throughout.
//
// Reported per run: ingest throughput and batch p50/p99/p99.9, query
// p50/p99/p99.9 over origin-distributed cell-range scans, write-stall
// time, final region count, splits/merges, written as a `skew` block to
// BENCH_balance.json.
//
// Usage: bench_balance [--check] [--out <path>]
//   --check   exit nonzero unless (a) the balancer split at least once
//             under the Zipfian workload, (b) balancer-on ingest is within
//             30% of balancer-off on the uniform workload, and (c) the
//             full-table scan is byte-identical with the balancer on vs
//             off for both workloads (splits/merges must never change
//             query results).
//   --out     JSON report path (default: BENCH_balance.json).
//
// Scale with TMAN_SCALE (default 1).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "cluster/region_balancer.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

constexpr int kGrid = 4096;            // cells per axis (24-bit cell ids)
constexpr int kInitialShards = 4;      // regions = top two cell bits
constexpr int kRowsPerBatch = 400;
constexpr int kBatchesPerTick = 8;     // balancer cadence during ingest
constexpr size_t kMaxRowsPerTrip = 40;
constexpr uint32_t kQueryCellSpan = 16;  // cells per query range

// 24-bit origin cell of a point within the core bounds; row-major with
// latitude as the major axis, so cell >> 22 (the leading key byte, in
// [0, 4)) carves the core into four equal latitude bands.
uint32_t CellOf(const traj::SpatialBounds& core, double x, double y) {
  const auto axis = [](double v, double lo, double hi) {
    const double f = (v - lo) / (hi - lo);
    const int g = static_cast<int>(f * kGrid);
    return static_cast<uint32_t>(std::clamp(g, 0, kGrid - 1));
  };
  return axis(y, core.min_lat, core.max_lat) * kGrid +
         axis(x, core.min_lon, core.max_lon);
}

// Rowkey: [cell >> 22][cell, 3B big-endian][seq, 8B big-endian]. The first
// byte lands the row in the matching initial one-byte-range region.
std::string MakeKey(uint32_t cell, uint64_t seq) {
  std::string k(12, '\0');
  k[0] = static_cast<char>(cell >> 22);
  k[1] = static_cast<char>((cell >> 16) & 0xff);
  k[2] = static_cast<char>((cell >> 8) & 0xff);
  k[3] = static_cast<char>(cell & 0xff);
  for (int i = 0; i < 8; i++) {
    k[4 + i] = static_cast<char>((seq >> (56 - 8 * i)) & 0xff);
  }
  return k;
}

// 4-byte prefix covering every row of `cell`; cells >= 2^24 clamp to a key
// past the last possible row (for half-open query ranges).
std::string CellPrefix(uint32_t cell) {
  if (cell >= (1u << 24)) return std::string(1, '\x04');
  std::string k(4, '\0');
  k[0] = static_cast<char>(cell >> 22);
  k[1] = static_cast<char>((cell >> 16) & 0xff);
  k[2] = static_cast<char>((cell >> 8) & 0xff);
  k[3] = static_cast<char>(cell & 0xff);
  return k;
}

std::string MakeValue(uint32_t cell, uint64_t seq) {
  char buf[64];
  const int n = snprintf(buf, sizeof(buf), "cell=%06x seq=%016" PRIx64, cell,
                         seq);
  std::string v(buf, static_cast<size_t>(n));
  v.resize(64, 'v');
  return v;
}

struct Workload {
  std::string name;
  std::vector<cluster::Row> rows;
  std::vector<uint32_t> query_cells;  // one per trip: its origin cell
};

// Rows keyed by trip-origin cell: each trajectory contributes up to
// kMaxRowsPerTrip rows under its origin's cell, mimicking per-trip
// elements landing on the region that serves the departure area.
Workload BuildWorkload(const char* name, const traj::DatasetSpec& spec,
                       size_t trips, uint64_t seed) {
  Workload w;
  w.name = name;
  const auto data = traj::Generate(spec, trips, seed);
  uint64_t seq = 0;
  for (const auto& t : data) {
    if (t.points.empty()) continue;
    const uint32_t cell = CellOf(spec.core, t.points[0].x, t.points[0].y);
    w.query_cells.push_back(cell);
    const size_t n = std::min(t.points.size(), kMaxRowsPerTrip);
    for (size_t i = 0; i < n; i++) {
      w.rows.push_back(cluster::Row{MakeKey(cell, seq), MakeValue(cell, seq)});
      seq++;
    }
  }
  return w;
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct RunResult {
  double seconds = 0;
  double rows_per_sec = 0;
  double ingest_p50_ms = 0, ingest_p99_ms = 0, ingest_p999_ms = 0;
  double query_p50_ms = 0, query_p99_ms = 0, query_p999_ms = 0;
  double stall_ms = 0;
  int regions = 0;
  uint64_t splits = 0, merges = 0;
  uint64_t scan_rows = 0;
  uint64_t scan_hash = 0;
};

RunResult RunOne(const Workload& w, bool balance) {
  const std::string dir = BenchDir(std::string("balance_") + w.name +
                                   (balance ? "_on" : "_off"));
  kv::Options kv_options;
  kv_options.write_buffer_size = 256 * 1024;
  cluster::Cluster cluster(dir, kInitialShards, kv_options);
  Status s = cluster.CreateTable("t", kInitialShards);
  if (!s.ok()) {
    fprintf(stderr, "create table: %s\n", s.ToString().c_str());
    exit(1);
  }
  cluster::ClusterTable* table = cluster.GetTable("t");

  // Threshold rationale at this scale: one tick covers kBatchesPerTick *
  // kRowsPerBatch = 3200 writes (~90 trips). Under uniform origins each of
  // the 4 regions holds ~25% +- a few points of that delta, well under the
  // 0.42 split trigger; the Zipfian rank-1 hot spot alone draws ~50%.
  cluster::RegionBalancerOptions bopts;
  bopts.interval_seconds = 0;  // manual Tick() only: deterministic cadence
  bopts.min_tick_writes = 2000;
  bopts.split_share = 0.42;
  bopts.min_split_writes = 800;
  bopts.min_split_bytes = 16 * 1024;
  bopts.merge_share = 0.005;
  bopts.min_regions = kInitialShards;
  bopts.max_regions = 12;
  cluster::RegionBalancer balancer({table}, bopts);

  std::vector<double> batch_ms;
  batch_ms.reserve(w.rows.size() / kRowsPerBatch + 1);

  const auto start = std::chrono::steady_clock::now();
  int batches = 0;
  for (size_t off = 0; off < w.rows.size(); off += kRowsPerBatch) {
    const size_t n = std::min<size_t>(kRowsPerBatch, w.rows.size() - off);
    const std::vector<cluster::Row> batch(w.rows.begin() + off,
                                          w.rows.begin() + off + n);
    const auto t0 = std::chrono::steady_clock::now();
    s = table->BatchPut(batch);
    const auto t1 = std::chrono::steady_clock::now();
    if (!s.ok()) {
      fprintf(stderr, "batch put: %s\n", s.ToString().c_str());
      exit(1);
    }
    batch_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    // Topology work happens between batches but inside the wall clock:
    // throughput pays for splits, batch latencies show their effect.
    if (balance && ++batches % kBatchesPerTick == 0) balancer.Tick();
  }
  s = table->Flush();
  if (!s.ok()) {
    fprintf(stderr, "flush: %s\n", s.ToString().c_str());
    exit(1);
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.rows_per_sec = static_cast<double>(w.rows.size()) / r.seconds;
  r.ingest_p50_ms = Percentile(batch_ms, 50);
  r.ingest_p99_ms = Percentile(batch_ms, 99);
  r.ingest_p999_ms = Percentile(batch_ms, 99.9);
  r.stall_ms = static_cast<double>(table->GetStorageStats().stall_micros) /
               1000.0;

  // Queries follow the write skew: origin-cell ranges sampled from the
  // trips themselves, so under zipf most scans hit the (ex-)hot region.
  const size_t q = std::min<size_t>(100, 20 * Scale());
  std::vector<double> query_ms;
  query_ms.reserve(q);
  for (size_t i = 0; i < q; i++) {
    const uint32_t cell =
        w.query_cells[(i * 7919) % w.query_cells.size()] & ~(kQueryCellSpan - 1);
    const std::vector<cluster::KeyRange> ranges = {
        cluster::KeyRange{CellPrefix(cell), CellPrefix(cell + kQueryCellSpan)}};
    std::vector<cluster::Row> out;
    cluster::CollectRowsSink collect(&out);
    const auto t0 = std::chrono::steady_clock::now();
    s = table->MultiScan(ranges, nullptr, 0, &collect, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    if (!s.ok()) {
      fprintf(stderr, "query scan: %s\n", s.ToString().c_str());
      exit(1);
    }
    query_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  r.query_p50_ms = Percentile(query_ms, 50);
  r.query_p99_ms = Percentile(query_ms, 99);
  r.query_p999_ms = Percentile(query_ms, 99.9);

  // Full-table scan, sorted and hashed: must be byte-identical between the
  // balancer-on and balancer-off runs of the same workload.
  std::vector<cluster::Row> all;
  cluster::CollectRowsSink collect_all(&all);
  s = table->MultiScan({cluster::KeyRange{"", ""}}, nullptr, 0, &collect_all,
                       nullptr);
  if (!s.ok()) {
    fprintf(stderr, "full scan: %s\n", s.ToString().c_str());
    exit(1);
  }
  std::sort(all.begin(), all.end(),
            [](const cluster::Row& a, const cluster::Row& b) {
              return a.key < b.key;
            });
  uint64_t h = 14695981039346656037ull;
  for (const cluster::Row& row : all) {
    h = Fnv1a(row.key, h);
    h = Fnv1a(row.value, h);
  }
  r.scan_rows = all.size();
  r.scan_hash = h;
  r.regions = table->num_shards();
  r.splits = table->splits_performed();
  r.merges = table->merges_performed();
  return r;
}

void PrintRun(const char* workload, const char* mode, const RunResult& r) {
  PrintCell(workload);
  PrintCell(mode);
  PrintCell(r.rows_per_sec);
  PrintCell(r.ingest_p99_ms);
  PrintCell(r.ingest_p999_ms);
  PrintCell(r.query_p99_ms);
  PrintCell(r.stall_ms);
  PrintCell(static_cast<uint64_t>(r.regions));
  PrintCell(r.splits);
  EndRow();
}

void AppendRunJson(std::string* out, const char* key, const RunResult& r) {
  char buf[640];
  snprintf(buf, sizeof(buf),
           "      \"%s\": {\"rows_per_sec\": %.1f, "
           "\"ingest_p50_ms\": %.3f, \"ingest_p99_ms\": %.3f, "
           "\"ingest_p999_ms\": %.3f, \"query_p50_ms\": %.3f, "
           "\"query_p99_ms\": %.3f, \"query_p999_ms\": %.3f, "
           "\"stall_ms\": %.1f, \"regions\": %d, \"splits\": %" PRIu64
           ", \"merges\": %" PRIu64 ", \"scan_rows\": %" PRIu64 "}",
           key, r.rows_per_sec, r.ingest_p50_ms, r.ingest_p99_ms,
           r.ingest_p999_ms, r.query_p50_ms, r.query_p99_ms, r.query_p999_ms,
           r.stall_ms, r.regions, r.splits, r.merges, r.scan_rows);
  out->append(buf);
}

int Run(bool check, const std::string& out_path) {
  const size_t trips = 1500 * static_cast<size_t>(Scale());
  traj::DatasetSpec uniform_spec = traj::TDriveLikeSpec();
  const traj::DatasetSpec zipf_spec = traj::CityHotspotSpec();
  const Workload uniform = BuildWorkload("uniform", uniform_spec, trips, 91);
  const Workload zipf = BuildWorkload("zipf", zipf_spec, trips, 91);
  printf("=== Region balancer A/B: %zu uniform rows, %zu zipf rows, "
         "%d initial regions ===\n\n",
         uniform.rows.size(), zipf.rows.size(), kInitialShards);

  const RunResult u_off = RunOne(uniform, false);
  const RunResult u_on = RunOne(uniform, true);
  const RunResult z_off = RunOne(zipf, false);
  const RunResult z_on = RunOne(zipf, true);

  PrintHeader({"workload", "balancer", "rows/s", "ing p99", "ing p99.9",
               "qry p99", "stall ms", "regions", "splits"});
  PrintRun("uniform", "off", u_off);
  PrintRun("uniform", "on", u_on);
  PrintRun("zipf", "off", z_off);
  PrintRun("zipf", "on", z_on);

  const double zipf_ingest_p99_ratio =
      z_on.ingest_p99_ms > 0 ? z_off.ingest_p99_ms / z_on.ingest_p99_ms : 0;
  const double zipf_query_p99_ratio =
      z_on.query_p99_ms > 0 ? z_off.query_p99_ms / z_on.query_p99_ms : 0;
  const double uniform_tput_ratio =
      u_off.rows_per_sec > 0 ? u_on.rows_per_sec / u_off.rows_per_sec : 0;
  const bool scans_identical = u_off.scan_hash == u_on.scan_hash &&
                               u_off.scan_rows == u_on.scan_rows &&
                               z_off.scan_hash == z_on.scan_hash &&
                               z_off.scan_rows == z_on.scan_rows;
  const unsigned cores = std::thread::hardware_concurrency();
  printf("\nzipf p99 off/on: ingest %.2fx  query %.2fx   uniform on/off "
         "throughput: %.2fx   scans identical: %s   (%u core%s)\n",
         zipf_ingest_p99_ratio, zipf_query_p99_ratio, uniform_tput_ratio,
         scans_identical ? "yes" : "NO", cores, cores == 1 ? "" : "s");

  int failures = 0;
  if (check) {
    if (z_on.splits < 1) {
      fprintf(stderr, "CHECK FAIL: balancer performed %" PRIu64
              " splits under the zipf workload (expected >= 1)\n",
              z_on.splits);
      failures++;
    } else {
      printf("check: zipf workload triggered %" PRIu64 " split%s (%d -> %d "
             "regions)\n",
             z_on.splits, z_on.splits == 1 ? "" : "s", kInitialShards,
             z_on.regions);
    }
    if (uniform_tput_ratio < 0.7) {
      fprintf(stderr,
              "CHECK FAIL: balancer-on uniform ingest %.2fx of balancer-off "
              "(< 0.7)\n",
              uniform_tput_ratio);
      failures++;
    } else {
      printf("check: uniform ingest with balancer on at %.2fx of off "
             "(splits on=%" PRIu64 ")\n",
             uniform_tput_ratio, u_on.splits);
    }
    if (!scans_identical) {
      fprintf(stderr,
              "CHECK FAIL: full-table scans differ with balancer on vs off "
              "(uniform %" PRIu64 "/%" PRIu64 " rows hash %016" PRIx64
              "/%016" PRIx64 ", zipf %" PRIu64 "/%" PRIu64 " rows hash "
              "%016" PRIx64 "/%016" PRIx64 ")\n",
              u_off.scan_rows, u_on.scan_rows, u_off.scan_hash, u_on.scan_hash,
              z_off.scan_rows, z_on.scan_rows, z_off.scan_hash, z_on.scan_hash);
      failures++;
    } else {
      printf("check: full-table scans byte-identical on vs off "
             "(uniform %" PRIu64 " rows, zipf %" PRIu64 " rows)\n",
             u_off.scan_rows, z_off.scan_rows);
    }
  }

  std::string json = "{\n  \"benchmark\": \"balance\",\n  \"skew\": {\n";
  {
    char head[256];
    snprintf(head, sizeof(head),
             "    \"cpu_cores\": %u,\n"
             "    \"uniform_rows\": %zu,\n"
             "    \"zipf_rows\": %zu,\n"
             "    \"runs\": {\n",
             cores, uniform.rows.size(), zipf.rows.size());
    json += head;
  }
  AppendRunJson(&json, "uniform_off", u_off);
  json += ",\n";
  AppendRunJson(&json, "uniform_on", u_on);
  json += ",\n";
  AppendRunJson(&json, "zipf_off", z_off);
  json += ",\n";
  AppendRunJson(&json, "zipf_on", z_on);
  json += "\n    },\n";
  {
    char tail[512];
    snprintf(tail, sizeof(tail),
             "    \"zipf_ingest_p99_off_over_on\": %.3f,\n"
             "    \"zipf_query_p99_off_over_on\": %.3f,\n"
             "    \"uniform_throughput_on_over_off\": %.3f,\n"
             "    \"scans_identical\": %s,\n"
             "    \"check\": {\"enabled\": %s, \"passed\": %s}\n"
             "  }\n}\n",
             zipf_ingest_p99_ratio, zipf_query_p99_ratio, uniform_tput_ratio,
             scans_identical ? "true" : "false", check ? "true" : "false",
             failures == 0 ? "true" : "false");
    json += tail;
  }
  if (FILE* f = fopen(out_path.c_str(), "w")) {
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
    printf("wrote %s\n", out_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  bool check = false;
  std::string out = "BENCH_balance.json";
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--check] [--out path]\n", argv[0]);
      return 2;
    }
  }
  return tman::bench::Run(check, out);
}
