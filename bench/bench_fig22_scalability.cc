// Fig. 22: (a) scalability of TRQ and SRQ over replicated Lorry data
// (Lorry-1 .. Lorry-4 by default; raise TMAN_SCALE for more copies);
// (b) batch-update (insert) throughput of TMan.

#include <cstdio>
#include <memory>

#include "baselines/sthadoop.h"
#include "baselines/trajmesa.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/tman.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

void RunScalability() {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto base = traj::Generate(spec, LorryCount() / 2, 22);
  const int max_copies = 4 * Scale();

  printf("Fig 22(a) — scalability over Lorry-i (base %zu trajectories)\n",
         base.size());
  PrintHeader({"copies", "system", "trq_ms", "srq_ms"});

  for (int copies = 1; copies <= max_copies; copies *= 2) {
    const auto data = traj::Replicate(spec, base, copies, 22);
    traj::DatasetSpec scaled = spec;
    scaled.horizon_seconds = spec.horizon_seconds * copies;

    const auto tws = traj::RandomTimeWindows(scaled, QueriesPerPoint(),
                                             6 * 3600, 321);
    const auto sws =
        traj::RandomSpaceWindows(scaled, QueriesPerPoint(), 1500, 321);

    // TMan (spatial primary answers SRQ; TR secondary answers TRQ).
    core::TManOptions options = DefaultOptions(spec);
    options.tr.max_periods = 48;
    std::unique_ptr<core::TMan> tman;
    core::TMan::Open(options,
                     BenchDir("fig22_tman_" + std::to_string(copies)), &tman);
    tman->BulkLoad(data);
    tman->Flush();

    baselines::TrajMesa::Options tm_options;
    tm_options.bounds = spec.bounds;
    std::unique_ptr<baselines::TrajMesa> trajmesa;
    baselines::TrajMesa::Open(
        tm_options, BenchDir("fig22_tm_" + std::to_string(copies)),
        &trajmesa);
    trajmesa->Load(data);
    trajmesa->Flush();

    baselines::STHadoop::Options sth_options;
    sth_options.bounds = spec.bounds;
    std::unique_ptr<baselines::STHadoop> sth;
    baselines::STHadoop::Open(
        sth_options, BenchDir("fig22_sth_" + std::to_string(copies)), &sth);
    sth->Load(data);
    sth->Flush();

    auto medians = [&](auto&& trq, auto&& srq) {
      std::vector<double> trq_times, srq_times;
      for (size_t i = 0; i < tws.size(); i++) {
        core::QueryStats stats;
        trq(tws[i], &stats);
        trq_times.push_back(stats.execution_ms);
        core::QueryStats sstats;
        srq(sws[i], &sstats);
        srq_times.push_back(sstats.execution_ms);
      }
      return std::make_pair(Median(trq_times), Median(srq_times));
    };

    {
      auto [trq_ms, srq_ms] = medians(
          [&](const traj::TimeWindow& q, core::QueryStats* stats) {
            std::vector<traj::Trajectory> out;
            tman->TemporalRangeQuery(q.ts, q.te, &out, stats);
          },
          [&](const traj::SpaceWindow& q, core::QueryStats* stats) {
            std::vector<traj::Trajectory> out;
            tman->SpatialRangeQuery(q.rect, &out, stats);
          });
      PrintCell(static_cast<uint64_t>(copies));
      PrintCell(std::string("TMan"));
      PrintCell(trq_ms);
      PrintCell(srq_ms);
      EndRow();
    }
    {
      auto [trq_ms, srq_ms] = medians(
          [&](const traj::TimeWindow& q, core::QueryStats* stats) {
            std::vector<traj::Trajectory> out;
            trajmesa->TemporalRangeQuery(q.ts, q.te, &out, stats);
          },
          [&](const traj::SpaceWindow& q, core::QueryStats* stats) {
            std::vector<traj::Trajectory> out;
            trajmesa->SpatialRangeQuery(q.rect, &out, stats);
          });
      PrintCell(static_cast<uint64_t>(copies));
      PrintCell(std::string("TrajMesa"));
      PrintCell(trq_ms);
      PrintCell(srq_ms);
      EndRow();
    }
    {
      auto [trq_ms, srq_ms] = medians(
          [&](const traj::TimeWindow& q, core::QueryStats* stats) {
            std::vector<std::string> tids;
            sth->TemporalRangeQuery(q.ts, q.te, &tids, stats);
          },
          [&](const traj::SpaceWindow& q, core::QueryStats* stats) {
            std::vector<std::string> tids;
            sth->SpatialRangeQuery(q.rect, &tids, stats);
          });
      PrintCell(static_cast<uint64_t>(copies));
      PrintCell(std::string("STH"));
      PrintCell(trq_ms);
      PrintCell(srq_ms);
      EndRow();
    }
  }
}

void RunUpdate() {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto initial = traj::Generate(spec, LorryCount() / 2, 23);
  auto updates = traj::Generate(spec, LorryCount() / 2, 24);
  for (auto& t : updates) t.tid += "-u";

  core::TManOptions options = DefaultOptions(spec);
  std::unique_ptr<core::TMan> tman;
  core::TMan::Open(options, BenchDir("fig22_update"), &tman);
  tman->BulkLoad(initial);
  tman->Flush();

  printf("\nFig 22(b) — batch insert into an existing table\n");
  PrintHeader({"batch", "rows", "time_ms", "rows_per_s"});
  const size_t batch_size = 500;
  int batch_id = 0;
  for (size_t off = 0; off < updates.size(); off += batch_size) {
    std::vector<traj::Trajectory> batch(
        updates.begin() + off,
        updates.begin() + std::min(off + batch_size, updates.size()));
    Stopwatch watch;
    tman->Insert(batch);
    const double ms = watch.ElapsedMillis();
    PrintCell(static_cast<uint64_t>(batch_id++));
    PrintCell(static_cast<uint64_t>(batch.size()));
    PrintCell(ms);
    PrintCell(static_cast<double>(batch.size()) / (ms / 1000.0));
    EndRow();
  }
  printf("catalog: %llu shapes in %zu elements\n",
         static_cast<unsigned long long>(
             tman->index_cache()->registered_shapes()),
         tman->index_cache()->occupied_elements());
}

}  // namespace
}  // namespace tman::bench

int main() {
  printf("=== Fig. 22: scalability and update ===\n");
  tman::bench::RunScalability();
  tman::bench::RunUpdate();
  return 0;
}
