// MultiScan A/B benchmark: the six query types answered twice on the same
// loaded instance — once through the per-window ParallelScan baseline
// (Executor::set_use_multiscan(false)) and once through the batched
// MultiScan read path — with medians persisted to BENCH_query.json.
//
// Usage: bench_multiscan [--check] [--out <path>]
//   --check   exit nonzero unless MultiScan is at least as fast as the
//             per-window baseline on the canonical multi-window STRQ and
//             IDT workloads (the CI smoke gate), and those workloads
//             really scan >= 64 windows.
//   --out     where to write the JSON report (default: BENCH_query.json).

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/tman.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

struct QueryResult {
  std::string name;
  double baseline_ms = 0;   // median per-query wall time, per-window scans
  double multiscan_ms = 0;  // median per-query wall time, batched MultiScan
  uint64_t windows = 0;     // median window count
  bool canonical = false;  // participates in the --check gate

  double Speedup() const {
    return multiscan_ms > 0 ? baseline_ms / multiscan_ms : 0;
  }
};

// Runs one query workload in both modes, alternating which mode goes first
// per repetition so block-cache warmth does not systematically favor one
// side. `run` executes a single query for index i and fills `stats`.
QueryResult Measure(
    core::TMan* tman, const std::string& name, size_t queries, bool canonical,
    const std::function<void(size_t, core::QueryStats*)>& run) {
  std::vector<double> base_times, multi_times, windows;
  for (size_t i = 0; i < queries; i++) {
    core::QueryStats ignored;
    run(i, &ignored);  // warm block cache and page cache for both modes
    for (int pass = 0; pass < 2; pass++) {
      const bool multiscan = (pass == 0) == (i % 2 == 0);
      tman->executor()->set_use_multiscan(multiscan);
      core::QueryStats stats;
      run(i, &stats);
      (multiscan ? multi_times : base_times).push_back(stats.execution_ms);
      if (multiscan) {
        windows.push_back(static_cast<double>(stats.windows));
      }
    }
  }
  tman->executor()->set_use_multiscan(true);

  QueryResult r;
  r.name = name;
  r.baseline_ms = Median(base_times);
  r.multiscan_ms = Median(multi_times);
  r.windows = static_cast<uint64_t>(Median(windows));
  r.canonical = canonical;
  printf("%-22s windows %-8llu baseline %8.3f ms   multiscan %8.3f ms   "
         "speedup %.2fx\n",
         name.c_str(), static_cast<unsigned long long>(r.windows),
         r.baseline_ms, r.multiscan_ms, r.Speedup());
  return r;
}

void WriteJson(const std::string& path, const std::vector<QueryResult>& all) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "{\n  \"benchmark\": \"multiscan\",\n  \"queries\": [\n");
  for (size_t i = 0; i < all.size(); i++) {
    const QueryResult& r = all[i];
    fprintf(f,
            "    {\"query\": \"%s\", \"windows\": %llu, "
            "\"baseline_ms\": %.4f, "
            "\"multiscan_ms\": %.4f, \"speedup\": %.3f, \"canonical\": %s}%s\n",
            r.name.c_str(), static_cast<unsigned long long>(r.windows),
            r.baseline_ms, r.multiscan_ms, r.Speedup(),
            r.canonical ? "true" : "false", i + 1 < all.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("\nwrote %s\n", path.c_str());
}

int Run(bool check, const std::string& out_path) {
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const auto data = traj::Generate(spec, TDriveCount(), 41);
  printf("=== MultiScan vs per-window Scan (%zu trajectories) ===\n\n",
         data.size());

  core::TManOptions options = DefaultOptions(spec);
  // A finer TR period widens the multi-window batches (IDT window count is
  // bounded by tr.max_periods), making this the canonical >= 64-window
  // STRQ/IDT workload the CI gate checks.
  options.tr.period_seconds = 600;
  options.tr.max_periods = spec.long_max / options.tr.period_seconds + 2;
  std::unique_ptr<core::TMan> tman;
  core::TMan::Open(options, BenchDir("multiscan"), &tman);
  tman->BulkLoad(data);
  tman->Flush();

  const size_t q = QueriesPerPoint();
  // Long ranges so the canonical STRQ/IDT workloads compile to wide
  // multi-window batches (the --check gate asserts >= 64 windows).
  const auto trq_tw = traj::RandomTimeWindows(spec, q, 6 * 3600, 71);
  const auto strq_tw = traj::RandomTimeWindows(spec, q, 12 * 3600, 72);
  const auto srq_sw = traj::RandomSpaceWindows(spec, q, 2000, 73);
  const auto strq_sw = traj::RandomSpaceWindows(spec, q, 4000, 74);
  const auto idt_tw = traj::RandomTimeWindows(spec, q, 36 * 3600, 75);
  std::vector<std::string> oids;
  for (const auto& t : data) {
    if (oids.empty() || oids.back() != t.oid) oids.push_back(t.oid);
    if (oids.size() >= q) break;
  }
  const traj::Trajectory& sim_query = data[7];

  std::vector<QueryResult> results;
  results.push_back(Measure(
      tman.get(), "TRQ", q, false, [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->TemporalRangeQuery(trq_tw[i].ts, trq_tw[i].te, &out, stats);
      }));
  results.push_back(Measure(
      tman.get(), "SRQ", q, false, [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->SpatialRangeQuery(srq_sw[i].rect, &out, stats);
      }));
  results.push_back(Measure(
      tman.get(), "STRQ", q, true, [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->SpatioTemporalRangeQuery(strq_sw[i].rect, strq_tw[i].ts,
                                       strq_tw[i].te, &out, stats);
      }));
  results.push_back(Measure(
      tman.get(), "IDT", q, true, [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->IDTemporalQuery(oids[i % oids.size()], idt_tw[i].ts,
                              idt_tw[i].te, &out, stats);
      }));
  results.push_back(Measure(
      tman.get(), "threshold-sim", q, false,
      [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->ThresholdSimilarityQuery(
            sim_query, geo::SimilarityMeasure::kHausdorff, 0.02, &out, stats);
      }));
  results.push_back(Measure(
      tman.get(), "topk-sim", q, false, [&](size_t i, core::QueryStats* stats) {
        std::vector<traj::Trajectory> out;
        tman->TopKSimilarityQuery(sim_query, geo::SimilarityMeasure::kHausdorff,
                                  10, &out, stats);
      }));

  WriteJson(out_path, results);

  if (!check) return 0;
  int failures = 0;
  for (const QueryResult& r : results) {
    if (!r.canonical) continue;
    if (r.windows < 64) {
      fprintf(stderr, "CHECK FAIL: %s scanned %llu windows (< 64)\n",
              r.name.c_str(), static_cast<unsigned long long>(r.windows));
      failures++;
    }
    if (r.multiscan_ms > r.baseline_ms) {
      fprintf(stderr,
              "CHECK FAIL: %s MultiScan %.3f ms slower than baseline %.3f ms\n",
              r.name.c_str(), r.multiscan_ms, r.baseline_ms);
      failures++;
    }
    printf("check %-6s windows %llu speedup %.2fx (target >= 1.5x)%s\n",
           r.name.c_str(), static_cast<unsigned long long>(r.windows),
           r.Speedup(), r.Speedup() >= 1.5 ? "  [met]" : "");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  bool check = false;
  std::string out = "BENCH_query.json";
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
