// Sustained-ingest benchmark for the background flush/compaction pipeline
// and the multicore write path.
//
// Section 1 streams BatchPut batches into a 4-shard cluster table through
// the write pipeline (group-commit WAL, background flush/compaction, write
// backpressure) and reports throughput, batch latency and the flush,
// compaction and stall counts.
//
// Section 2 hammers a single kv::DB with N client threads issuing
// WriteBatch writes (group commit: the leader folds queued batches into one
// WAL record and applies them to the memtable itself) and reports the
// per-thread-count throughput. Both sections land in BENCH_ingest.json.
//
// Flags:
//   --threads 1,2,4,8   thread counts for the multicore section
//   --check             verify row counts by scanning after each run;
//                       exits nonzero on any mismatch (CI smoke mode)
//
// Scale with TMAN_SCALE (default 1).

#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "kvstore/db.h"
#include "kvstore/options.h"
#include "kvstore/scan_filter.h"
#include "kvstore/write_batch.h"
#include "obs/metrics.h"

namespace tman::bench {
namespace {

struct IngestResult {
  double seconds = 0;
  double rows_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
  kv::DB::Stats storage;
};

// Rowkeys mimic TMan's layout: a one-byte shard prefix (round-robin across
// the 4 shards, as the shard function spreads real trajectory keys) plus a
// fixed-width payload key. Values model encoded trajectory elements.
IngestResult RunIngest(int batches, int rows_per_batch,
                       obs::MetricsRegistry* metrics) {
  const std::string dir = BenchDir("ingest_pipelined");
  kv::Options kv_options;
  kv_options.write_buffer_size = 256 * 1024;
  kv_options.metrics = metrics;
  cluster::Cluster cluster(dir, 4, kv_options);
  Status s = cluster.CreateTable("ingest", 4);
  if (!s.ok()) {
    fprintf(stderr, "create table: %s\n", s.ToString().c_str());
    exit(1);
  }
  cluster::ClusterTable* table = cluster.GetTable("ingest");

  Random rnd(42);
  const std::string value(100, 'v');
  std::vector<double> batch_ms;
  batch_ms.reserve(batches);

  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < batches; b++) {
    std::vector<cluster::Row> rows;
    rows.reserve(rows_per_batch);
    for (int r = 0; r < rows_per_batch; r++) {
      const int seq = b * rows_per_batch + r;
      char key[32];
      snprintf(key, sizeof(key), "%c%010d-%04x", 'a' + (seq % 4), seq,
               static_cast<unsigned>(rnd.Next() & 0xffff));
      rows.push_back(cluster::Row{key, value});
    }
    const auto t0 = std::chrono::steady_clock::now();
    s = table->BatchPut(rows);
    const auto t1 = std::chrono::steady_clock::now();
    if (!s.ok()) {
      fprintf(stderr, "batch put: %s\n", s.ToString().c_str());
      exit(1);
    }
    batch_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  // Include the drain, so the time covers every flush and compaction.
  s = table->Flush();
  if (!s.ok()) {
    fprintf(stderr, "flush: %s\n", s.ToString().c_str());
    exit(1);
  }
  const auto end = std::chrono::steady_clock::now();

  IngestResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.rows_per_sec =
      static_cast<double>(batches) * rows_per_batch / result.seconds;
  result.p50_ms = Percentile(batch_ms, 50);
  result.p99_ms = Percentile(batch_ms, 99);
  result.p999_ms = Percentile(batch_ms, 99.9);
  result.max_ms = Percentile(batch_ms, 100);
  result.storage = table->GetStorageStats();
  return result;
}

// ---------------------------------------------------------------------------
// Multicore write scaling: N client threads -> one kv::DB.

struct MulticoreResult {
  int threads = 0;
  double seconds = 0;
  double rows_per_sec = 0;
};

class CountingSink : public kv::RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    (void)key;
    (void)value;
    rows++;
    return true;
  }
  uint64_t rows = 0;
};

// Each of `threads` client threads writes `total_rows / threads` rows in
// WriteBatch chunks of `rows_per_batch` into one DB (disjoint per-thread
// key ranges, 100-byte values). Returns sustained throughput including the
// final drain. With `check`, scans the DB afterwards and verifies the row
// count; a mismatch aborts the benchmark with a nonzero exit.
MulticoreResult RunMulticore(int threads, int total_rows, int rows_per_batch,
                             bool check) {
  const std::string dir = BenchDir("ingest_mc_" + std::to_string(threads));
  kv::Options options;
  options.write_buffer_size = 4 * 1024 * 1024;
  std::unique_ptr<kv::DB> db;
  Status s = kv::DB::Open(options, dir, &db);
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    exit(1);
  }

  const int per_thread = total_rows / threads;
  const std::string value(100, 'v');

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      kv::WriteOptions wo;
      for (int i = 0; i < per_thread; i += rows_per_batch) {
        kv::WriteBatch batch;
        for (int j = i; j < i + rows_per_batch && j < per_thread; j++) {
          char key[32];
          snprintf(key, sizeof(key), "t%02d-%08d", t, j);
          batch.Put(key, value);
        }
        Status ws = db->Write(wo, &batch);
        if (!ws.ok()) {
          fprintf(stderr, "write: %s\n", ws.ToString().c_str());
          exit(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  s = db->Flush();
  if (!s.ok()) {
    fprintf(stderr, "flush: %s\n", s.ToString().c_str());
    exit(1);
  }
  const auto end = std::chrono::steady_clock::now();

  MulticoreResult result;
  result.threads = threads;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.rows_per_sec =
      static_cast<double>(per_thread) * threads / result.seconds;

  if (check) {
    CountingSink sink;
    s = db->Scan(kv::ReadOptions(), "", "\xff", nullptr, 0, &sink, nullptr);
    const uint64_t expected = static_cast<uint64_t>(per_thread) * threads;
    if (!s.ok() || sink.rows != expected) {
      fprintf(stderr,
              "CHECK FAILED: threads=%d expected %" PRIu64
              " rows, scanned %" PRIu64 " (%s)\n",
              threads, expected, sink.rows, s.ToString().c_str());
      exit(1);
    }
  }
  return result;
}

std::vector<int> ParseThreadList(const char* arg) {
  std::vector<int> out;
  const char* p = arg;
  while (*p != '\0') {
    char* next = nullptr;
    const long v = strtol(p, &next, 10);
    if (next == p) break;
    if (v >= 1 && v <= 64) out.push_back(static_cast<int>(v));
    p = (*next == ',') ? next + 1 : next;
  }
  if (out.empty()) out = {1, 2, 4, 8};
  return out;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  using namespace tman::bench;

  std::vector<int> thread_counts = {1, 2, 4, 8};
  bool check = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = ParseThreadList(argv[++i]);
    } else if (strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = ParseThreadList(argv[i] + 10);
    } else if (strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      fprintf(stderr, "usage: %s [--threads 1,2,4,8] [--check]\n", argv[0]);
      return 2;
    }
  }

  const int batches = 400 * Scale();
  const int rows_per_batch = 250;
  printf("Sustained ingest: %d batches x %d rows (%d total), 4 shards\n\n",
         batches, rows_per_batch, batches * rows_per_batch);

  // The run records into a metrics registry; its dump lands next to
  // BENCH_ingest.json so CI archives both.
  tman::obs::MetricsRegistry registry;
  IngestResult pipelined = RunIngest(batches, rows_per_batch, &registry);

  PrintHeader({"write path", "rows/s", "p50 ms", "p99 ms", "p99.9 ms",
               "max ms", "flushes", "compactions", "stall ms"});
  PrintCell("pipelined");
  PrintCell(pipelined.rows_per_sec);
  PrintCell(pipelined.p50_ms);
  PrintCell(pipelined.p99_ms);
  PrintCell(pipelined.p999_ms);
  PrintCell(pipelined.max_ms);
  PrintCell(pipelined.storage.flush_count);
  PrintCell(pipelined.storage.compaction_count);
  PrintCell(static_cast<double>(pipelined.storage.stall_micros) / 1000.0);
  EndRow();

  const unsigned cores = std::thread::hardware_concurrency();

  // Section 2: multicore write scaling against one DB.
  const int mc_rows = 100000 * Scale();
  const int mc_rows_per_batch = 64;
  printf("\nMulticore write scaling: %d rows total, %d-row batches, "
         "one DB (%u core%s)\n\n",
         mc_rows, mc_rows_per_batch, cores, cores == 1 ? "" : "s");
  PrintHeader({"threads", "rows/s", "vs first"});
  std::vector<MulticoreResult> mc;
  for (int n : thread_counts) {
    mc.push_back(RunMulticore(n, mc_rows, mc_rows_per_batch, check));
    PrintCell(static_cast<double>(n));
    PrintCell(mc.back().rows_per_sec);
    PrintCell(mc.back().rows_per_sec / mc.front().rows_per_sec);
    EndRow();
  }
  if (check) printf("check: all multicore row counts verified by scan\n");

  FILE* json = fopen("BENCH_ingest.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"benchmark\": \"sustained_batchput_ingest\",\n"
            "  \"cpu_cores\": %u,\n"
            "  \"batches\": %d,\n"
            "  \"rows_per_batch\": %d,\n"
            "  \"pipelined\": {\n"
            "    \"rows_per_sec\": %.1f,\n"
            "    \"p50_batch_ms\": %.3f,\n"
            "    \"p99_batch_ms\": %.3f,\n"
            "    \"p999_batch_ms\": %.3f,\n"
            "    \"max_batch_ms\": %.3f,\n"
            "    \"flushes\": %" PRIu64 ",\n"
            "    \"compactions\": %" PRIu64 ",\n"
            "    \"stall_ms\": %.1f\n"
            "  },\n",
            cores, batches, rows_per_batch, pipelined.rows_per_sec,
            pipelined.p50_ms, pipelined.p99_ms, pipelined.p999_ms,
            pipelined.max_ms, pipelined.storage.flush_count,
            pipelined.storage.compaction_count,
            static_cast<double>(pipelined.storage.stall_micros) / 1000.0);
    // Multicore rows: speedups are relative to the first thread count run
    // on this host (cpu_cores above qualifies them).
    fprintf(json,
            "  \"multicore\": {\n"
            "    \"rows\": %d,\n"
            "    \"rows_per_batch\": %d,\n"
            "    \"checked\": %s,\n"
            "    \"runs\": [\n",
            mc_rows, mc_rows_per_batch, check ? "true" : "false");
    for (size_t i = 0; i < mc.size(); i++) {
      fprintf(json,
              "      {\"threads\": %d, \"rows_per_sec\": %.1f, "
              "\"speedup_vs_first\": %.3f}%s\n",
              mc[i].threads, mc[i].rows_per_sec,
              mc[i].rows_per_sec / mc.front().rows_per_sec,
              i + 1 < mc.size() ? "," : "");
    }
    fprintf(json,
            "    ]\n"
            "  }\n"
            "}\n");
    fclose(json);
    printf("wrote BENCH_ingest.json\n");
  }

  FILE* prom = fopen("BENCH_ingest_metrics.prom", "w");
  if (prom != nullptr) {
    const std::string text = registry.RenderPrometheus();
    fwrite(text.data(), 1, text.size(), prom);
    fclose(prom);
    printf("wrote BENCH_ingest_metrics.prom\n");
  }
  return 0;
}
