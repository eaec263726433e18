// Fig. 19: (a) ID-temporal queries (TMan vs TrajMesa) plus the
// trajectories-per-object distribution; (b) spatio-temporal range queries
// (TMan with ST primary, TMan-XZ, TrajMesa, ST-Hadoop).

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
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

constexpr int kRepeats = 5;  // timed runs of each Fig. 19(b) query

void RunIDT(const traj::DatasetSpec& spec,
            const std::vector<traj::Trajectory>& data, core::TMan* tman,
            baselines::TrajMesa* trajmesa) {
  // Trajectories-per-object distribution over 12h (paper: 50% of objects
  // generate <= 40 trajectories in 12 hours).
  std::map<std::string, int> per_object;
  for (const auto& t : data) per_object[t.oid]++;
  std::vector<double> counts;
  for (const auto& [oid, n] : per_object) {
    counts.push_back(static_cast<double>(n));
  }
  printf("\nFig 19(a) — trajectories per object: median %.0f, p90 %.0f\n",
         Median(counts), Percentile(counts, 90));

  // Query a sample of objects over random 12h ranges.
  std::vector<std::string> oids;
  for (const auto& [oid, n] : per_object) {
    oids.push_back(oid);
    if (oids.size() >= QueriesPerPoint()) break;
  }
  const auto windows =
      traj::RandomTimeWindows(spec, oids.size(), 12 * 3600, 99);

  std::vector<double> tman_times, tm_times, tman_cands, tm_cands;
  for (size_t i = 0; i < oids.size(); i++) {
    {
      std::vector<traj::Trajectory> out;
      core::QueryStats stats;
      tman->IDTemporalQuery(oids[i], windows[i].ts, windows[i].te, &out,
                            &stats);
      tman_times.push_back(stats.execution_ms);
      tman_cands.push_back(static_cast<double>(stats.candidates));
    }
    {
      std::vector<traj::Trajectory> out;
      core::QueryStats stats;
      trajmesa->IDTemporalQuery(oids[i], windows[i].ts, windows[i].te, &out,
                                &stats);
      tm_times.push_back(stats.execution_ms);
      tm_cands.push_back(static_cast<double>(stats.candidates));
    }
  }
  PrintHeader({"system", "time_ms", "candidates"});
  PrintCell(std::string("TMan"));
  PrintCell(Median(tman_times));
  PrintCell(static_cast<uint64_t>(Median(tman_cands)));
  EndRow();
  PrintCell(std::string("TrajMesa"));
  PrintCell(Median(tm_times));
  PrintCell(static_cast<uint64_t>(Median(tm_cands)));
  EndRow();
}

void RunDataset(const char* name, const traj::DatasetSpec& spec,
                size_t count, uint64_t seed) {
  const auto data = traj::Generate(spec, count, seed);
  printf("\nFig 19 — %s (%zu trajectories)\n", name, data.size());

  // TMan with the ST index as primary (the STRQ configuration).
  core::TManOptions st_options = DefaultOptions(spec);
  st_options.primary = core::PrimaryIndexKind::kST;
  std::unique_ptr<core::TMan> tman_st;
  core::TMan::Open(st_options, BenchDir(std::string("fig19_st_") + name),
                   &tman_st);
  tman_st->BulkLoad(data);

  // TMan-XZ: ST primary built from TR :: XZ-Ordering values.
  core::TManOptions xz_options = DefaultOptions(spec);
  xz_options.primary = core::PrimaryIndexKind::kST;
  xz_options.spatial = core::SpatialIndexKind::kXZ2;
  std::unique_ptr<core::TMan> tman_xz;
  core::TMan::Open(xz_options, BenchDir(std::string("fig19_xz_") + name),
                   &tman_xz);
  tman_xz->BulkLoad(data);

  baselines::TrajMesa::Options tm_options;
  tm_options.bounds = spec.bounds;
  std::unique_ptr<baselines::TrajMesa> trajmesa;
  baselines::TrajMesa::Open(tm_options,
                            BenchDir(std::string("fig19_tm_") + name),
                            &trajmesa);
  trajmesa->Load(data);

  baselines::STHadoop::Options sth_options;
  sth_options.bounds = spec.bounds;
  std::unique_ptr<baselines::STHadoop> sth;
  baselines::STHadoop::Open(sth_options,
                            BenchDir(std::string("fig19_sth_") + name), &sth);
  sth->Load(data);

  // Quiesce all four stores before anything is timed: flush, then compact
  // everything, so no store's background work runs under another's query.
  tman_st->Flush();
  tman_st->CompactAll();
  tman_xz->Flush();
  tman_xz->CompactAll();
  trajmesa->Flush();
  trajmesa->CompactAll();
  sth->Flush();
  sth->CompactAll();

  RunIDT(spec, data, tman_st.get(), trajmesa.get());

  // STRQ: random combinations of temporal and spatial windows (paper
  // §VI-D combines the ranges of §VI-B and §VI-C).
  printf("\nFig 19(b) — spatio-temporal range queries (median over "
         "queries of each query's median over %d runs)\n",
         kRepeats);
  const auto tws =
      traj::RandomTimeWindows(spec, QueriesPerPoint(), 6 * 3600, 55);
  const auto sws = traj::RandomSpaceWindows(spec, QueriesPerPoint(), 2000, 55);

  using RunFn = std::function<void(const geo::MBR&, int64_t, int64_t,
                                   core::QueryStats*)>;
  const std::vector<std::pair<std::string, RunFn>> systems = {
      {"TMan",
       [&](const geo::MBR& rect, int64_t ts, int64_t te,
           core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         tman_st->SpatioTemporalRangeQuery(rect, ts, te, &out, stats);
       }},
      {"TMan-XZ",
       [&](const geo::MBR& rect, int64_t ts, int64_t te,
           core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         tman_xz->SpatioTemporalRangeQuery(rect, ts, te, &out, stats);
       }},
      {"TrajMesa",
       [&](const geo::MBR& rect, int64_t ts, int64_t te,
           core::QueryStats* stats) {
         std::vector<traj::Trajectory> out;
         trajmesa->SpatioTemporalRangeQuery(rect, ts, te, &out, stats);
       }},
      {"STH", [&](const geo::MBR& rect, int64_t ts, int64_t te,
                  core::QueryStats* stats) {
         std::vector<std::string> tids;
         sth->SpatioTemporalRangeQuery(rect, ts, te, &tids, stats);
       }},
  };
  // times[s][i]: system s's runs of query i. Each round runs every query
  // on every system in turn, so the systems share the host's state; the
  // order rotates, so no system always runs right after STH's scans have
  // cooled the caches.
  std::vector<std::vector<std::vector<double>>> times(
      systems.size(), std::vector<std::vector<double>>(tws.size()));
  std::vector<std::vector<double>> candidates(systems.size());
  for (int round = 0; round < kRepeats; round++) {
    for (size_t i = 0; i < tws.size(); i++) {
      for (size_t k = 0; k < systems.size(); k++) {
        const size_t sys = (k + i + static_cast<size_t>(round)) % systems.size();
        core::QueryStats stats;
        systems[sys].second(sws[i].rect, tws[i].ts, tws[i].te, &stats);
        times[sys][i].push_back(stats.execution_ms);
        if (round == 0) {
          candidates[sys].push_back(static_cast<double>(stats.candidates));
        }
      }
    }
  }
  PrintHeader({"system", "time_ms", "candidates"});
  for (size_t sys = 0; sys < systems.size(); sys++) {
    std::vector<double> medians;
    for (const std::vector<double>& runs : times[sys]) {
      medians.push_back(Median(runs));
    }
    PrintCell(systems[sys].first);
    PrintCell(Median(medians));
    PrintCell(static_cast<uint64_t>(Median(candidates[sys])));
    EndRow();
  }
}

}  // namespace
}  // namespace tman::bench

int main() {
  printf("=== Fig. 19: IDT and spatio-temporal range queries ===\n");
  tman::bench::RunDataset("TDrive-like", tman::traj::TDriveLikeSpec(),
                          tman::bench::TDriveCount(), 37);
  tman::bench::RunDataset("Lorry-like", tman::traj::LorryLikeSpec(),
                          tman::bench::LorryCount(), 38);
  return 0;
}
