// Micro-benchmarks of the LSM key-value substrate (google-benchmark):
// sequential/random writes, point lookups, range scans, batched writes.
// `--check` runs the telemetry-overhead gate instead (see the end of the
// file): the put and get workloads on a plain, a metrics-attached and a
// fully instrumented DB in lockstep, budget <5%.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
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

std::unique_ptr<DB> OpenFresh(const std::string& name,
                              const Options& options = Options()) {
  const std::string dir = "/tmp/tman_bench/micro_kv_" + name;
  std::filesystem::remove_all(dir);
  std::unique_ptr<DB> db;
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

// ---------------------------------------------------------------------------
// --check: the telemetry-overhead gate. Each workload runs on three twin
// DBs: a plain one, one with a metrics registry attached, and one with the
// full live telemetry plane armed (a windowed registry and an
// EventLogListener on Options::listeners; on the read path also one light
// TraceSpan per op, captured into a TraceRing only past a slow threshold
// that never trips, the allocation profile TMan pays per query when
// slow_query_micros > 0). TMan's ingest path carries no spans, so the put
// twin pays no trace. The <5% gate compares the telemetry twin with the
// metrics twin, the plane's delta on top of the registry, and records its
// delta over the plain DB beside it.
//
// The twins run in lockstep: round r times one batch of operations on
// every twin, in an order that rotates with r, on the thread's CPU clock.
// A slow spell of the host then lands on the three batches of a round
// alike; timed as separate runs, it lands on one twin's runs only, and the
// gate's readings swung by 10+ points between runs of one binary. A twin's
// overhead over another is the median over rounds of its batch time over
// theirs. The put twins write into memtables that hold every put, so none
// flushes or compacts (checked from their counters): the twins do the same
// work, and only the plane differs.

constexpr int kCheckRounds = 201;  // odd: the median is one round's ratio
constexpr int kCheckBatch = 1000;  // operations per twin per round
constexpr size_t kCheckWriteBuffer = 64 << 20;

enum Twin { kPlain, kMetrics, kTelemetry, kTwins };

// A `write_buffer` of zero keeps the default memtable size. Registries and
// the listener are leaked so the DBs' pointers to them stay valid.
std::unique_ptr<DB> OpenTwin(int twin, const std::string& name,
                             size_t write_buffer = 0) {
  static obs::MetricsRegistry* metrics = new obs::MetricsRegistry();
  static obs::MetricsRegistry* windowed = [] {
    auto* r = new obs::MetricsRegistry();
    r->EnableWindows(6, 10);
    return r;
  }();
  static EventLogListener* listener =
      new EventLogListener(new obs::EventLog(256));
  static const char* const kSuffix[kTwins] = {"", "_metrics", "_telemetry"};
  Options options;
  if (write_buffer != 0) options.write_buffer_size = write_buffer;
  if (twin == kMetrics) options.metrics = metrics;
  if (twin == kTelemetry) {
    options.metrics = windowed;
    options.listeners.push_back(listener);
  }
  return OpenFresh(name + kSuffix[twin], options);
}

double ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// ns[t][r]: the CPU time of twin t's batch in round r, run by batch(t, r).
template <typename Batch>
std::vector<std::vector<double>> RunLockstep(Batch batch) {
  std::vector<std::vector<double>> ns(kTwins);
  for (int r = 0; r < kCheckRounds; r++) {
    for (int k = 0; k < kTwins; k++) {
      const int t = (k + r) % kTwins;
      const double start = ThreadCpuNs();
      batch(t, r);
      ns[t].push_back(ThreadCpuNs() - start);
    }
  }
  return ns;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Percent by which `twin`'s batches took longer than `base`'s: the median
// over rounds of the round's ratio.
double OverheadPct(const std::vector<double>& base,
                   const std::vector<double>& twin) {
  std::vector<double> ratios;
  for (size_t r = 0; r < base.size(); r++) ratios.push_back(twin[r] / base[r]);
  return (Median(ratios) - 1.0) * 100.0;
}

// Sequential puts; sets *background if a twin flushed or compacted.
std::vector<std::vector<double>> TimePutTwins(bool* background) {
  std::unique_ptr<DB> dbs[kTwins];
  for (int t = 0; t < kTwins; t++) {
    dbs[t] = OpenTwin(t, "check_put", kCheckWriteBuffer);
  }
  const std::string value(100, 'v');
  auto ns = RunLockstep([&](int t, int r) {
    for (int j = 0; j < kCheckBatch; j++) {
      const uint64_t key = static_cast<uint64_t>(r) * kCheckBatch + j;
      dbs[t]->Put(WriteOptions(), KeyOf(key), value);
    }
  });
  for (const auto& db : dbs) {
    const DB::Stats stats = db->GetStats();
    if (stats.flush_count + stats.compaction_count > 0) *background = true;
  }
  return ns;
}

// Random gets over 100k compacted keys, the same keys on every twin; the
// telemetry twin wraps each in a light trace span.
std::vector<std::vector<double>> TimeGetTwins() {
  const std::string value(100, 'v');
  const uint64_t n = 100000;
  std::unique_ptr<DB> dbs[kTwins];
  for (int t = 0; t < kTwins; t++) {
    dbs[t] = OpenTwin(t, "check_get");
    for (uint64_t i = 0; i < n; i++) {
      dbs[t]->Put(WriteOptions(), KeyOf(i), value);
    }
    dbs[t]->CompactAll();
  }
  Random rnd(2);
  std::vector<uint64_t> ids;
  for (int i = 0; i < kCheckRounds * kCheckBatch; i++) {
    ids.push_back(rnd.Uniform(n));
  }
  obs::TraceRing ring(32);
  std::string result;
  return RunLockstep([&](int t, int r) {
    const uint64_t* batch_ids =
        ids.data() + static_cast<size_t>(r) * kCheckBatch;
    for (int j = 0; j < kCheckBatch; j++) {
      if (t != kTelemetry) {
        dbs[t]->Get(ReadOptions(), KeyOf(batch_ids[j]), &result);
        continue;
      }
      auto root = std::make_shared<obs::TraceSpan>("get");
      dbs[t]->Get(ReadOptions(), KeyOf(batch_ids[j]), &result);
      root->End();
      if (root->duration_ms() >= 1e3) ring.Capture(*root);
    }
  });
}

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

int RunOverheadCheck() {
  bool background = false;
  const auto put = TimePutTwins(&background);
  const auto get = TimeGetTwins();
  if (background) {
    fprintf(stderr,
            "CHECK FAIL: a put twin flushed or compacted inside its timed "
            "loop, so the twins did not do the same work\n");
    return 1;
  }
  const char* names[kTwins] = {"plain", "metrics", "telemetry"};
  for (int t = 0; t < kTwins; t++) {
    printf("%-9s put %7.0f ns/op  get %7.0f ns/op (median batch of %d, %d "
           "rounds)\n",
           names[t], Median(put[t]) / kCheckBatch, Median(get[t]) / kCheckBatch,
           kCheckBatch, kCheckRounds);
  }
  // Gated: the plane's delta over the metrics-attached DB. Recorded
  // alongside: the delta over the bare uninstrumented DB, for reference.
  const double put_pct = OverheadPct(put[kMetrics], put[kTelemetry]);
  const double get_pct = OverheadPct(get[kMetrics], get[kTelemetry]);
  const double put_vs_plain = OverheadPct(put[kPlain], put[kTelemetry]);
  const double get_vs_plain = OverheadPct(get[kPlain], get[kTelemetry]);
  const bool passed = put_pct < 5.0 && get_pct < 5.0;
  printf("check: telemetry plane overhead vs metrics-attached DB "
         "put=%+.2f%% get=%+.2f%% (budget <5%%); vs plain DB "
         "put=%+.2f%% get=%+.2f%%\n",
         put_pct, get_pct, put_vs_plain, get_vs_plain);
  WriteOverheadJson(put_pct, get_pct, put_vs_plain, get_vs_plain, passed);
  if (!passed) {
    fprintf(stderr,
            "CHECK FAIL: telemetry overhead exceeds 5%% budget "
            "(put %+.2f%%, get %+.2f%% vs metrics-attached DB)\n",
            put_pct, get_pct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tman::kv

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--check") == 0) return tman::kv::RunOverheadCheck();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
