#ifndef TMAN_BENCH_BENCH_UTIL_H_
#define TMAN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/tman.h"
#include "obs/metrics.h"
#include "traj/generator.h"

namespace tman::bench {

// All benchmark binaries scale with TMAN_SCALE (default 1). The paper's
// datasets are ~100x larger; shapes of the comparisons are preserved at
// laptop scale.
inline int Scale() {
  const char* s = getenv("TMAN_SCALE");
  if (s == nullptr) return 1;
  const int v = atoi(s);
  return v < 1 ? 1 : v;
}

inline size_t TDriveCount() { return 2500 * static_cast<size_t>(Scale()); }
inline size_t LorryCount() { return 4000 * static_cast<size_t>(Scale()); }
inline size_t QueriesPerPoint() {
  return std::min<size_t>(100, 12 * static_cast<size_t>(Scale()));
}

inline std::string BenchDir(const std::string& name) {
  std::string dir = "/tmp/tman_bench/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// p in [0, 100]; the paper reports the 50th percentile of query times.
// Routed through the shared obs::Histogram so benches and the metrics
// registry agree on quantile math: millisecond samples are recorded at
// microsecond granularity into the log-scale buckets (<= 6.25% bucket
// width, ~3% after interpolation). p==0 and p==100 stay exact (min/max).
inline double Percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  obs::Histogram h;
  for (double v : values) h.RecordMicros(v * 1000.0);
  return h.Percentile(p) / 1000.0;
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

// One system's row of a figure timed by TimeInterleaved.
struct InterleavedResult {
  double time_ms;  // median over queries of each query's median time
  double count;    // median over queries of the first round's count
};

// Times `queries` queries on each of `systems` systems, `repeats` runs of
// each. run(system, query, &count) runs one query and returns its time in
// ms; `count` is the work the figure reports beside it (candidates, exact
// distances). Each round runs every query on every system in turn, so the
// systems share the host's state, in an order that rotates with the query
// and the round, so no system always runs first or right after another
// (say, right after a scan-heavy one has cooled the caches).
template <typename Run>
std::vector<InterleavedResult> TimeInterleaved(size_t systems, size_t queries,
                                               int repeats, Run run) {
  // times[s][i]: system s's runs of query i.
  std::vector<std::vector<std::vector<double>>> times(
      systems, std::vector<std::vector<double>>(queries));
  std::vector<std::vector<double>> counts(systems);
  for (int round = 0; round < repeats; round++) {
    for (size_t i = 0; i < queries; i++) {
      for (size_t k = 0; k < systems; k++) {
        const size_t sys = (k + i + static_cast<size_t>(round)) % systems;
        double count = 0;
        times[sys][i].push_back(run(sys, i, &count));
        if (round == 0) counts[sys].push_back(count);
      }
    }
  }
  std::vector<InterleavedResult> results;
  for (size_t sys = 0; sys < systems; sys++) {
    std::vector<double> medians;
    for (const std::vector<double>& runs : times[sys]) {
      medians.push_back(Median(runs));
    }
    results.push_back({Median(medians), Median(counts[sys])});
  }
  return results;
}

// Baseline TMan configuration for a dataset spec; callers override the
// index kinds per experiment.
inline core::TManOptions DefaultOptions(const traj::DatasetSpec& spec) {
  core::TManOptions options;
  options.bounds = spec.bounds;
  options.tr.origin = 0;
  options.tr.period_seconds = 1800;
  // N sized to the dataset's longest trajectory (the paper's user knob).
  options.tr.max_periods = spec.long_max / options.tr.period_seconds + 2;
  options.xzt.origin = 0;
  options.xzt.period_seconds = 7LL * 24 * 3600;
  options.xzt.max_resolution = 14;
  options.tshape = index::TShapeConfig{3, 3, 15};
  options.xz2 = index::XZ2Config{15};
  options.num_shards = 4;
  options.num_servers = 5;
  options.genetic.generations = 25;
  options.kv.write_buffer_size = 2 * 1024 * 1024;
  return options;
}

// Fixed-width table row helpers so bench output reads like the paper's
// tables.
inline void PrintHeader(const std::vector<std::string>& columns) {
  for (const auto& c : columns) {
    printf("%-14s", c.c_str());
  }
  printf("\n");
  for (size_t i = 0; i < columns.size(); i++) {
    printf("%-14s", "---------");
  }
  printf("\n");
}

inline void PrintCell(const std::string& v) { printf("%-14s", v.c_str()); }
inline void PrintCell(double v) { printf("%-14.2f", v); }
inline void PrintCell(uint64_t v) {
  printf("%-14llu", static_cast<unsigned long long>(v));
}
inline void EndRow() { printf("\n"); }

inline std::string HumanDuration(int64_t seconds) {
  if (seconds % 3600 == 0) return std::to_string(seconds / 3600) + "h";
  if (seconds % 60 == 0) return std::to_string(seconds / 60) + "m";
  return std::to_string(seconds) + "s";
}

}  // namespace tman::bench

#endif  // TMAN_BENCH_BENCH_UTIL_H_
