// Micro-benchmarks of the LSM key-value substrate (google-benchmark):
// sequential/random writes, point lookups, range scans, batched writes.
// The *Metrics variants run the identical workload with an obs registry
// attached, so comparing e.g. BM_Get vs BM_GetMetrics measures the
// instrumentation overhead on the hot path (budget: <5%).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/random.h"
#include "kvstore/db.h"
#include "kvstore/event_listener.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Process-wide heap-allocation counter so the multi-window scan benches can
// report allocations per row (the zero-copy read path's whole point).
static std::atomic<uint64_t> g_heap_allocs{0};

// The unsized new and delete stay out of line and the other forms forward
// to them: inlined into a caller, malloc() or free() would meet a pointer
// the compiler takes to belong to the other allocator and warn
// -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

__attribute__((noinline)) void operator delete(void* p) noexcept { free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace tman::kv {
namespace {

// Shared across benchmark repetitions; leaked so registry pointers held by
// DB instances stay valid for the whole process.
obs::MetricsRegistry* BenchRegistry() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  return registry;
}

std::unique_ptr<DB> OpenFresh(const std::string& name,
                              obs::MetricsRegistry* metrics = nullptr) {
  const std::string dir = "/tmp/tman_bench/micro_kv_" + name;
  std::filesystem::remove_all(dir);
  std::unique_ptr<DB> db;
  Options options;
  options.metrics = metrics;
  DB::Open(options, dir, &db);
  return db;
}

std::string KeyOf(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "key%016llx", static_cast<unsigned long long>(i));
  return buf;
}

// Attaches the storage engine's background-work accounting to the
// benchmark report (GetStats drains nothing; counters are cumulative).
void ReportStorageCounters(benchmark::State& state, DB* db) {
  DB::Stats stats = db->GetStats();
  state.counters["flushes"] = static_cast<double>(stats.flush_count);
  state.counters["compactions"] = static_cast<double>(stats.compaction_count);
  state.counters["compact_MB"] =
      static_cast<double>(stats.compaction_bytes_written) / (1024.0 * 1024.0);
  state.counters["stall_ms"] =
      static_cast<double>(stats.stall_micros) / 1000.0;
  state.counters["wal_syncs"] = static_cast<double>(stats.wal_syncs);
}

void BM_SequentialPut(benchmark::State& state) {
  auto db = OpenFresh("seqput");
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    db->Put(WriteOptions(), KeyOf(i++), value);
  }
  ReportStorageCounters(state, db.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialPut);

void BM_SequentialPutMetrics(benchmark::State& state) {
  auto db = OpenFresh("seqput_metrics", BenchRegistry());
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    db->Put(WriteOptions(), KeyOf(i++), value);
  }
  ReportStorageCounters(state, db.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialPutMetrics);

// ---------------------------------------------------------------------------
// Telemetry-plane twins: the identical put/get workloads with the FULL live
// telemetry plane armed — windowed metrics registry, EventLogListener on
// Options::listeners, and always-on light tracing (one TraceSpan per op,
// captured into a TraceRing only past a slow threshold that never trips, the
// same allocation profile TMan pays per query when slow_query_micros > 0).
// The <5% gate enforced by --check compares the *Telemetry twins against
// the *Metrics twins — the plane's delta on top of the metrics registry
// whose own <5% budget the BM_*Metrics twins have gated since PR 3 — and
// records the against-plain-DB delta alongside it for reference.

obs::MetricsRegistry* TelemetryRegistry() {
  static obs::MetricsRegistry* registry = [] {
    auto* r = new obs::MetricsRegistry();
    r->EnableWindows(6, 10);
    return r;
  }();
  return registry;
}

std::unique_ptr<DB> OpenFreshTelemetry(const std::string& name) {
  static obs::EventLog* event_log = new obs::EventLog(256);
  static EventLogListener* listener = new EventLogListener(event_log);
  const std::string dir = "/tmp/tman_bench/micro_kv_" + name;
  std::filesystem::remove_all(dir);
  std::unique_ptr<DB> db;
  Options options;
  options.metrics = TelemetryRegistry();
  options.listeners.push_back(listener);
  DB::Open(options, dir, &db);
  return db;
}

obs::TraceRing* BenchTraceRing() {
  static obs::TraceRing* ring = new obs::TraceRing(32);
  return ring;
}

// The write-path plane is listeners + windowed metrics: slow-query
// tracing arms the query (read) path only — TMan's ingest path carries no
// spans — so the put twin pays the per-op DrainEvents check and the
// registry, and the get twin additionally pays the per-op light trace.
void BM_SequentialPutTelemetry(benchmark::State& state) {
  auto db = OpenFreshTelemetry("seqput_telemetry");
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    db->Put(WriteOptions(), KeyOf(i++), value);
  }
  ReportStorageCounters(state, db.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialPutTelemetry);

void BM_RandomPut(benchmark::State& state) {
  auto db = OpenFresh("randput");
  const std::string value(100, 'v');
  Random rnd(1);
  for (auto _ : state) {
    db->Put(WriteOptions(), KeyOf(rnd.Next()), value);
  }
  ReportStorageCounters(state, db.get());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomPut);

void BM_BatchedPut(benchmark::State& state) {
  auto db = OpenFresh("batchput");
  const std::string value(100, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    WriteBatch batch;
    for (int j = 0; j < 100; j++) {
      batch.Put(KeyOf(i++), value);
    }
    db->Write(WriteOptions(), &batch);
  }
  ReportStorageCounters(state, db.get());
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BatchedPut);

void BM_Get(benchmark::State& state) {
  auto db = OpenFresh("get");
  const std::string value(100, 'v');
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) {
    db->Put(WriteOptions(), KeyOf(i), value);
  }
  db->CompactAll();
  Random rnd(2);
  std::string result;
  for (auto _ : state) {
    db->Get(ReadOptions(), KeyOf(rnd.Uniform(n)), &result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Get);

void BM_GetMetrics(benchmark::State& state) {
  auto db = OpenFresh("get_metrics", BenchRegistry());
  const std::string value(100, 'v');
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) {
    db->Put(WriteOptions(), KeyOf(i), value);
  }
  db->CompactAll();
  Random rnd(2);
  std::string result;
  for (auto _ : state) {
    db->Get(ReadOptions(), KeyOf(rnd.Uniform(n)), &result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetMetrics);

void BM_GetTelemetry(benchmark::State& state) {
  auto db = OpenFreshTelemetry("get_telemetry");
  obs::TraceRing* ring = BenchTraceRing();
  const std::string value(100, 'v');
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) {
    db->Put(WriteOptions(), KeyOf(i), value);
  }
  db->CompactAll();
  Random rnd(2);
  std::string result;
  for (auto _ : state) {
    auto root = std::make_shared<obs::TraceSpan>("get");
    db->Get(ReadOptions(), KeyOf(rnd.Uniform(n)), &result);
    root->End();
    if (root->duration_ms() >= 1e3) ring->Capture(*root);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetTelemetry);

void BM_Scan100(benchmark::State& state) {
  auto db = OpenFresh("scan");
  const std::string value(100, 'v');
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; i++) {
    db->Put(WriteOptions(), KeyOf(i), value);
  }
  db->CompactAll();
  Random rnd(3);
  for (auto _ : state) {
    const uint64_t start = rnd.Uniform(n - 200);
    std::vector<std::pair<std::string, std::string>> rows;
    db->Scan(ReadOptions(), KeyOf(start), KeyOf(start + 100), nullptr, 0,
             &rows, nullptr);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_Scan100);

// ---------------------------------------------------------------------------
// Multi-window read path twins. Both scan the same 16 windows x 100 rows per
// iteration; the baseline issues 16 independent Scans materializing
// std::string rows, the MultiScan variant streams pinned Slices through one
// reused iterator stack. `allocs_per_row` shows the allocation drop.

class ChecksumSink : public RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    // Touch both slices without copying them anywhere.
    sum_ += key.size() + value.size();
    sum_ += static_cast<unsigned char>(key[key.size() - 1]);
    sum_ += static_cast<unsigned char>(value[value.size() - 1]);
    rows_++;
    return true;
  }
  uint64_t sum_ = 0;
  uint64_t rows_ = 0;
};

std::unique_ptr<DB> OpenCompacted100k(const std::string& name) {
  auto db = OpenFresh(name);
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < 100000; i++) {
    db->Put(WriteOptions(), KeyOf(i), value);
  }
  db->CompactAll();
  return db;
}

std::vector<ScanWindow> Windows16(uint64_t start,
                                  std::vector<std::string>* backing) {
  backing->clear();
  for (int w = 0; w < 16; w++) {
    backing->push_back(KeyOf(start + 500 * w));
    backing->push_back(KeyOf(start + 500 * w + 100));
  }
  std::vector<ScanWindow> windows;
  for (int w = 0; w < 16; w++) {
    windows.push_back(ScanWindow{Slice((*backing)[2 * w]),
                                 Slice((*backing)[2 * w + 1])});
  }
  return windows;
}

void BM_ScanPerWindowBaseline(benchmark::State& state) {
  auto db = OpenCompacted100k("scan_perwin");
  Random rnd(4);
  uint64_t allocs = 0, rows = 0;
  for (auto _ : state) {
    std::vector<std::string> backing;
    // Starts drawn from a cache-resident prefix so both twins measure CPU
    // cost, not block-cache eviction noise.
    const auto windows = Windows16(rnd.Uniform(30000), &backing);
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (const ScanWindow& w : windows) {
      std::vector<std::pair<std::string, std::string>> out;
      db->Scan(ReadOptions(), w.start, w.end, nullptr, 0, &out, nullptr);
      rows += out.size();
      benchmark::DoNotOptimize(out);
    }
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  state.counters["allocs_per_row"] =
      rows ? static_cast<double>(allocs) / static_cast<double>(rows) : 0;
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScanPerWindowBaseline);

void BM_MultiScanZeroCopy(benchmark::State& state) {
  auto db = OpenCompacted100k("scan_multi");
  Random rnd(4);
  uint64_t allocs = 0, rows = 0;
  for (auto _ : state) {
    std::vector<std::string> backing;
    const auto windows = Windows16(rnd.Uniform(30000), &backing);
    ChecksumSink sink;
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    db->MultiScan(ReadOptions(), windows, nullptr, 0, &sink, nullptr);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    rows += sink.rows_;
    benchmark::DoNotOptimize(sink.sum_);
  }
  state.counters["allocs_per_row"] =
      rows ? static_cast<double>(allocs) / static_cast<double>(rows) : 0;
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_MultiScanZeroCopy);

// Captures per-repetition CPU time so --check can compare twin pairs on
// the min of repetitions (robust to scheduler noise on shared runners).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type == Run::RT_Aggregate) continue;
      if (run.iterations == 0) continue;
      // CPU time of the benchmark thread: much steadier than wall time on
      // shared runners where background flush threads and the scheduler
      // inject real-time noise.
      const double ns =
          run.cpu_accumulated_time * 1e9 / static_cast<double>(run.iterations);
      auto it = min_ns_.find(run.benchmark_name());
      if (it == min_ns_.end() || ns < it->second) {
        min_ns_[run.benchmark_name()] = ns;
      }
    }
    ConsoleReporter::ReportRuns(report);
  }

  // Min ns/op across repetitions; negative when the benchmark never ran.
  double MinNs(const std::string& name) const {
    auto it = min_ns_.find(name);
    return it == min_ns_.end() ? -1.0 : it->second;
  }

 private:
  std::map<std::string, double> min_ns_;
};

// Writes the telemetry-overhead result as BENCH_micro_kvstore.json.
void WriteOverheadJson(double put_pct, double get_pct, double put_vs_plain,
                       double get_vs_plain, bool passed) {
  FILE* f = fopen("BENCH_micro_kvstore.json", "w");
  if (f == nullptr) return;
  fprintf(f,
          "{\n"
          "  \"benchmark\": \"micro_kvstore\",\n"
          "  \"telemetry_overhead\": {\n"
          "    \"baseline\": \"metrics-attached DB\",\n"
          "    \"put_overhead_pct\": %.2f,\n"
          "    \"get_overhead_pct\": %.2f,\n"
          "    \"put_vs_plain_pct\": %.2f,\n"
          "    \"get_vs_plain_pct\": %.2f,\n"
          "    \"budget_pct\": 5.0,\n"
          "    \"passed\": %s\n"
          "  }\n"
          "}\n",
          put_pct, get_pct, put_vs_plain, get_vs_plain,
          passed ? "true" : "false");
  fclose(f);
  printf("wrote BENCH_micro_kvstore.json\n");
}

}  // namespace
}  // namespace tman::kv

int main(int argc, char** argv) {
  bool check = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  // --check runs only the telemetry twin pairs, three repetitions each, and
  // gates on the min-of-reps overhead.
  static char filter_arg[] =
      "--benchmark_filter=^BM_(SequentialPut|Get)(Metrics|Telemetry)?$";
  static char reps_arg[] = "--benchmark_repetitions=5";
  // Interleaves the repetitions of all twins instead of running each
  // benchmark's repetitions back-to-back, so slow drift (page cache,
  // thermal, noisy neighbors) hits baseline and twin alike.
  static char interleave_arg[] = "--benchmark_enable_random_interleaving=true";
  if (check) {
    args.push_back(filter_arg);
    args.push_back(reps_arg);
    args.push_back(interleave_arg);
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  tman::kv::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!check) return 0;

  const double put_plain = reporter.MinNs("BM_SequentialPut");
  const double put_metrics = reporter.MinNs("BM_SequentialPutMetrics");
  const double put_tel = reporter.MinNs("BM_SequentialPutTelemetry");
  const double get_plain = reporter.MinNs("BM_Get");
  const double get_metrics = reporter.MinNs("BM_GetMetrics");
  const double get_tel = reporter.MinNs("BM_GetTelemetry");
  if (put_plain <= 0 || put_metrics <= 0 || put_tel <= 0 || get_plain <= 0 ||
      get_metrics <= 0 || get_tel <= 0) {
    fprintf(stderr, "CHECK FAIL: twin benchmarks did not all run\n");
    return 1;
  }
  // Gated: the plane's delta over the metrics-attached DB (listeners +
  // windows + light tracing — what this PR adds on an instrumented store,
  // whose own budget the *Metrics twins gate). Recorded alongside: the
  // delta over the bare uninstrumented DB, for reference.
  const double put_pct = (put_tel / put_metrics - 1.0) * 100.0;
  const double get_pct = (get_tel / get_metrics - 1.0) * 100.0;
  const double put_vs_plain = (put_tel / put_plain - 1.0) * 100.0;
  const double get_vs_plain = (get_tel / get_plain - 1.0) * 100.0;
  const bool passed = put_pct < 5.0 && get_pct < 5.0;
  printf("check: telemetry plane overhead vs metrics-attached DB "
         "put=%+.2f%% get=%+.2f%% (budget <5%%); vs plain DB "
         "put=%+.2f%% get=%+.2f%%\n",
         put_pct, get_pct, put_vs_plain, get_vs_plain);
  tman::kv::WriteOverheadJson(put_pct, get_pct, put_vs_plain, get_vs_plain,
                              passed);
  if (!passed) {
    fprintf(stderr,
            "CHECK FAIL: telemetry overhead exceeds 5%% budget "
            "(put %+.2f%%, get %+.2f%% vs metrics-attached DB)\n",
            put_pct, get_pct);
    return 1;
  }
  return 0;
}
