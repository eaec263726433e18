// Fig. 20: threshold similarity queries (Fréchet, DTW, Hausdorff) on the
// Lorry-like workload with theta = 0.015 (normalized-degree units):
// TMan, TraSS (XZ* + no index cache inside the same framework), DFT, DITA.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/similarity_baselines.h"
#include "bench/bench_util.h"
#include "core/tman.h"
#include "geo/similarity.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

constexpr int kRepeats = 5;  // timed runs of each query on each system

// One threshold query on one system: returns its time in ms and stores its
// exact distance computations in *exact.
using ThresholdFn = std::function<double(
    const traj::Trajectory&, geo::SimilarityMeasure measure, double* exact)>;

void Run() {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto data = traj::Generate(spec, LorryCount(), 20);
  const double theta = 0.015;

  // TMan: TShape + index cache.
  core::TManOptions options = DefaultOptions(spec);
  std::unique_ptr<core::TMan> tman;
  core::TMan::Open(options, BenchDir("fig20_tman"), &tman);
  tman->BulkLoad(data);

  // TraSS: same framework, XZ* spatial index, no index cache (paper §V-F:
  // TShape with alpha=beta=2 and no cache is XZ*).
  core::TManOptions trass_options = DefaultOptions(spec);
  trass_options.spatial = core::SpatialIndexKind::kXZStar;
  trass_options.use_index_cache = false;
  std::unique_ptr<core::TMan> trass;
  core::TMan::Open(trass_options, BenchDir("fig20_trass"), &trass);
  trass->BulkLoad(data);

  // Quiesce both stores before anything is timed: flush, then compact
  // everything, so no store's background work runs under another's query.
  tman->Flush();
  tman->CompactAll();
  trass->Flush();
  trass->CompactAll();

  baselines::DFT::Options dft_options;
  dft_options.bounds = spec.bounds;
  baselines::DFT dft(dft_options);
  dft.Load(data);

  baselines::DITA::Options dita_options;
  dita_options.bounds = spec.bounds;
  baselines::DITA dita(dita_options);
  dita.Load(data);

  // Query trajectories sampled from the dataset.
  std::vector<size_t> query_ids;
  for (size_t i = 0; i < QueriesPerPoint(); i++) {
    query_ids.push_back((i * 37) % data.size());
  }

  auto tman_system = [&](core::TMan* store) -> ThresholdFn {
    return [&, store](const traj::Trajectory& q,
                      geo::SimilarityMeasure measure, double* exact) {
      std::vector<traj::Trajectory> out;
      core::QueryStats stats;
      store->ThresholdSimilarityQuery(q, measure, theta, &out, &stats);
      *exact = static_cast<double>(stats.exact_distance_computations);
      return stats.execution_ms;
    };
  };
  auto memory_system = [&](auto* baseline) -> ThresholdFn {
    return [&, baseline](const traj::Trajectory& q,
                         geo::SimilarityMeasure measure, double* exact) {
      baselines::SimilarityStats stats;
      baseline->Threshold(q, measure, theta, &stats);
      *exact = static_cast<double>(stats.exact_distance_computations);
      return stats.execution_ms;
    };
  };
  const std::vector<std::pair<std::string, ThresholdFn>> systems = {
      {"TMan", tman_system(tman.get())},
      {"TraSS", tman_system(trass.get())},
      {"DFT", memory_system(&dft)},
      {"DITA", memory_system(&dita)},
  };

  const struct {
    const char* name;
    geo::SimilarityMeasure measure;
  } measures[] = {
      {"Frechet", geo::SimilarityMeasure::kFrechet},
      {"DTW", geo::SimilarityMeasure::kDTW},
      {"Hausdorff", geo::SimilarityMeasure::kHausdorff},
  };

  printf("Fig 20 — threshold similarity (Lorry-like, %zu trajectories, "
         "theta=%.3f; median over queries of each query's median over %d "
         "runs)\n",
         data.size(), theta, kRepeats);
  PrintHeader({"measure", "system", "time_ms", "exact_dists"});

  for (const auto& m : measures) {
    const auto results = TimeInterleaved(
        systems.size(), query_ids.size(), kRepeats,
        [&](size_t sys, size_t i, double* exact) {
          return systems[sys].second(data[query_ids[i]], m.measure, exact);
        });
    for (size_t sys = 0; sys < systems.size(); sys++) {
      PrintCell(std::string(m.name));
      PrintCell(systems[sys].first);
      PrintCell(results[sys].time_ms);
      PrintCell(static_cast<uint64_t>(results[sys].count));
      EndRow();
    }
  }
}

}  // namespace
}  // namespace tman::bench

int main() {
  printf("=== Fig. 20: threshold similarity queries ===\n");
  tman::bench::Run();
  return 0;
}
