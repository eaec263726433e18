// Fig. 18: spatial range queries on both datasets — TMan (TShape), TMan-XZ
// (TMan framework with XZ-Ordering), TrajMesa (XZ2, no push-down),
// ST-Hadoop (per-point grid). Windows 100m .. 2500m.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/sthadoop.h"
#include "baselines/trajmesa.h"
#include "bench/bench_util.h"
#include "core/tman.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

constexpr double kWindowsMeters[] = {100, 500, 1000, 1500, 2000, 2500};
constexpr int kRepeats = 5;  // timed runs of each query on each system

void RunDataset(const char* name, const traj::DatasetSpec& spec,
                size_t count, uint64_t seed) {
  const auto data = traj::Generate(spec, count, seed);
  printf("\nFig 18 — SRQ on %s (%zu trajectories; median over queries of "
         "each query's median over %d runs)\n",
         name, data.size(), kRepeats);

  core::TManOptions tshape_options = DefaultOptions(spec);
  std::unique_ptr<core::TMan> tman_tshape;
  core::TMan::Open(tshape_options,
                   BenchDir(std::string("fig18_tshape_") + name),
                   &tman_tshape);
  tman_tshape->BulkLoad(data);

  core::TManOptions xz_options = DefaultOptions(spec);
  xz_options.spatial = core::SpatialIndexKind::kXZ2;
  std::unique_ptr<core::TMan> tman_xz;
  core::TMan::Open(xz_options, BenchDir(std::string("fig18_xz_") + name),
                   &tman_xz);
  tman_xz->BulkLoad(data);

  baselines::TrajMesa::Options tm_options;
  tm_options.bounds = spec.bounds;
  std::unique_ptr<baselines::TrajMesa> trajmesa;
  baselines::TrajMesa::Open(tm_options,
                            BenchDir(std::string("fig18_tm_") + name),
                            &trajmesa);
  trajmesa->Load(data);

  baselines::STHadoop::Options sth_options;
  sth_options.bounds = spec.bounds;
  std::unique_ptr<baselines::STHadoop> sth;
  baselines::STHadoop::Open(sth_options,
                            BenchDir(std::string("fig18_sth_") + name), &sth);
  sth->Load(data);

  // Quiesce all four stores before anything is timed: flush, then compact
  // everything, so no store's background work runs under another's query.
  tman_tshape->Flush();
  tman_tshape->CompactAll();
  tman_xz->Flush();
  tman_xz->CompactAll();
  trajmesa->Flush();
  trajmesa->CompactAll();
  sth->Flush();
  sth->CompactAll();

  using RunFn = std::function<void(const geo::MBR&, core::QueryStats*)>;
  const std::vector<std::pair<std::string, RunFn>> systems = {
      {"TMan",
       [&](const geo::MBR& rect, core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         tman_tshape->SpatialRangeQuery(rect, &out, stats);
       }},
      {"TMan-XZ",
       [&](const geo::MBR& rect, core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         tman_xz->SpatialRangeQuery(rect, &out, stats);
       }},
      {"TrajMesa",
       [&](const geo::MBR& rect, core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         trajmesa->SpatialRangeQuery(rect, &out, stats);
       }},
      {"STH",
       [&](const geo::MBR& rect, core::QueryStats* stats) {
         std::vector<std::string> tids;
         sth->SpatialRangeQuery(rect, &tids, stats);
       }},
  };

  PrintHeader({"system", "window_m", "time_ms", "candidates"});
  for (double side : kWindowsMeters) {
    const auto queries =
        traj::RandomSpaceWindows(spec, QueriesPerPoint(), side, 4242);
    // times[s][i]: system s's runs of query i. Each round runs every query
    // on every system in turn, in an order that rotates with the query and
    // the round, so no system always runs first or right after another.
    std::vector<std::vector<std::vector<double>>> times(
        systems.size(), std::vector<std::vector<double>>(queries.size()));
    std::vector<std::vector<double>> candidates(systems.size());
    for (int round = 0; round < kRepeats; round++) {
      for (size_t i = 0; i < queries.size(); i++) {
        for (size_t k = 0; k < systems.size(); k++) {
          const size_t sys =
              (k + i + static_cast<size_t>(round)) % systems.size();
          core::QueryStats stats;
          systems[sys].second(queries[i].rect, &stats);
          times[sys][i].push_back(stats.execution_ms);
          if (round == 0) {
            candidates[sys].push_back(static_cast<double>(stats.candidates));
          }
        }
      }
    }
    for (size_t sys = 0; sys < systems.size(); sys++) {
      std::vector<double> medians;
      for (const std::vector<double>& runs : times[sys]) {
        medians.push_back(Median(runs));
      }
      PrintCell(systems[sys].first);
      PrintCell(static_cast<uint64_t>(side));
      PrintCell(Median(medians));
      PrintCell(static_cast<uint64_t>(Median(candidates[sys])));
      EndRow();
    }
  }
}

}  // namespace
}  // namespace tman::bench

int main() {
  printf("=== Fig. 18: spatial range queries ===\n");
  tman::bench::RunDataset("TDrive-like", tman::traj::TDriveLikeSpec(),
                          tman::bench::TDriveCount(), 27);
  tman::bench::RunDataset("Lorry-like", tman::traj::LorryLikeSpec(),
                          tman::bench::LorryCount(), 28);
  return 0;
}
