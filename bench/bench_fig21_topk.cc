// Fig. 21: top-k similarity search (Fréchet) on the Lorry-like workload
// for k in {1, 10, 20, 50}: TMan, TraSS, DFT, DITA, REPOSE.

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

// One top-k query on one system: returns its time in ms and stores its
// exact distance computations in *exact.
using TopKFn = std::function<double(const traj::Trajectory&, size_t k,
                                    double* exact)>;

void Run() {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto data = traj::Generate(spec, LorryCount(), 21);
  const auto measure = geo::SimilarityMeasure::kFrechet;

  core::TManOptions options = DefaultOptions(spec);
  std::unique_ptr<core::TMan> tman;
  core::TMan::Open(options, BenchDir("fig21_tman"), &tman);
  tman->BulkLoad(data);

  core::TManOptions trass_options = DefaultOptions(spec);
  trass_options.spatial = core::SpatialIndexKind::kXZStar;
  trass_options.use_index_cache = false;
  std::unique_ptr<core::TMan> trass;
  core::TMan::Open(trass_options, BenchDir("fig21_trass"), &trass);
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

  baselines::REPOSE::Options repose_options;
  repose_options.bounds = spec.bounds;
  baselines::REPOSE repose(repose_options);
  repose.Load(data);

  std::vector<size_t> query_ids;
  for (size_t i = 0; i < QueriesPerPoint(); i++) {
    query_ids.push_back((i * 53) % data.size());
  }

  auto tman_system = [&](core::TMan* store) -> TopKFn {
    return [&, store](const traj::Trajectory& q, size_t k, double* exact) {
      std::vector<traj::Trajectory> out;
      core::QueryStats stats;
      store->TopKSimilarityQuery(q, measure, k, &out, &stats);
      *exact = static_cast<double>(stats.exact_distance_computations);
      return stats.execution_ms;
    };
  };
  auto memory_system = [&](auto* baseline) -> TopKFn {
    return [&, baseline](const traj::Trajectory& q, size_t k, double* exact) {
      baselines::SimilarityStats stats;
      baseline->TopK(q, measure, k, &stats);
      *exact = static_cast<double>(stats.exact_distance_computations);
      return stats.execution_ms;
    };
  };
  const std::vector<std::pair<std::string, TopKFn>> systems = {
      {"TMan", tman_system(tman.get())},
      {"TraSS", tman_system(trass.get())},
      {"DFT", memory_system(&dft)},
      {"DITA", memory_system(&dita)},
      {"REPOSE", memory_system(&repose)},
  };

  printf("Fig 21 — top-k similarity (Lorry-like, %zu trajectories, "
         "Frechet; median over queries of each query's median over %d "
         "runs)\n",
         data.size(), kRepeats);
  PrintHeader({"k", "system", "time_ms", "exact_dists"});

  for (size_t k : {1u, 10u, 20u, 50u}) {
    const auto results = TimeInterleaved(
        systems.size(), query_ids.size(), kRepeats,
        [&](size_t sys, size_t i, double* exact) {
          return systems[sys].second(data[query_ids[i]], k, exact);
        });
    for (size_t sys = 0; sys < systems.size(); sys++) {
      PrintCell(static_cast<uint64_t>(k));
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
  printf("=== Fig. 21: top-k similarity queries ===\n");
  tman::bench::Run();
  return 0;
}
