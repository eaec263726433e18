// Fleet monitoring: the logistics scenario from the paper's introduction
// (couriers/lorries generating trajectory logs). Demonstrates:
//   * continuous ingestion through the update path (§IV-C): unseen shapes
//     take free codes next to similar shapes, so no stored row moves;
//   * per-vehicle history lookups (IDT queries);
//   * a geofence check (which vehicles entered a depot area last night);
//   * storage accounting as the table grows.
//
//   ./build/examples/fleet_monitoring [data_dir]

#include <cstdio>
#include <map>
#include <memory>

#include "core/tman.h"
#include "traj/generator.h"

using tman::core::QueryStats;
using tman::core::TMan;
using tman::core::TManOptions;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/tman_fleet";

  const tman::traj::DatasetSpec spec = tman::traj::LorryLikeSpec();
  TManOptions options;
  options.bounds = spec.bounds;
  options.tr.period_seconds = 1800;
  options.tr.max_periods = spec.long_max / 1800 + 2;

  std::unique_ptr<TMan> db;
  tman::Status s = TMan::Open(options, dir, &db);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Day 0: bulk load the historical month of data.
  const auto history = tman::traj::Generate(spec, 3000, 11);
  s = db->BulkLoad(history);
  if (!s.ok()) {
    fprintf(stderr, "bulk load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db->Flush();
  printf("historical load: %zu trips, %llu bytes\n", history.size(),
         static_cast<unsigned long long>(db->StorageBytes()));

  // Live operation: trips stream in per shift. Each unseen shape is placed
  // between the most similar shapes of its element, in a free code that
  // never changes, so the catalog grows while stored rows stay put.
  auto live = tman::traj::Generate(spec, 1500, 12);
  for (auto& t : live) t.tid += "-live";
  const size_t shift_size = 300;
  for (size_t off = 0; off < live.size(); off += shift_size) {
    std::vector<tman::traj::Trajectory> shift(
        live.begin() + off,
        live.begin() + std::min(off + shift_size, live.size()));
    s = db->Insert(shift);
    if (!s.ok()) {
      fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
    printf("shift ingested: %zu trips (catalog: %llu shapes in %zu "
           "elements)\n",
           shift.size(),
           static_cast<unsigned long long>(
               db->index_cache()->registered_shapes()),
           db->index_cache()->occupied_elements());
  }

  // Dispatcher view: how busy were the five most active vehicles in the
  // first half of the month?
  std::map<std::string, int> trip_counts;
  for (const auto& t : history) trip_counts[t.oid]++;
  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [oid, n] : trip_counts) ranked.emplace_back(n, oid);
  std::sort(ranked.rbegin(), ranked.rend());

  printf("\nper-vehicle history (first half of the month):\n");
  for (size_t i = 0; i < 5 && i < ranked.size(); i++) {
    std::vector<tman::traj::Trajectory> trips;
    QueryStats stats;
    db->IDTemporalQuery(ranked[i].second, spec.t0,
                        spec.t0 + spec.horizon_seconds / 2, &trips, &stats);
    int64_t total_seconds = 0;
    for (const auto& t : trips) total_seconds += t.duration();
    printf("  %-18s %3zu trips, %5lld minutes driven, %.2f ms lookup\n",
           ranked[i].second.c_str(), trips.size(),
           static_cast<long long>(total_seconds / 60), stats.execution_ms);
  }

  // Geofence: which vehicles passed through the depot area on day 3?
  const tman::geo::MBR depot{113.25, 23.10, 113.32, 23.16};
  const int64_t night_start = spec.t0 + 3 * 24 * 3600;
  std::vector<tman::traj::Trajectory> visits;
  QueryStats stats;
  db->SpatioTemporalRangeQuery(depot, night_start, night_start + 12 * 3600,
                               &visits, &stats);
  std::map<std::string, int> visitors;
  for (const auto& t : visits) visitors[t.oid]++;
  printf("\ndepot geofence, day 3 (12h window): %zu trips by %zu vehicles "
         "(%.2f ms, %llu candidates)\n",
         visits.size(), visitors.size(), stats.execution_ms,
         static_cast<unsigned long long>(stats.candidates));

  printf("\nfinal storage: %llu bytes for %zu trips\n",
         static_cast<unsigned long long>(db->StorageBytes()),
         history.size() + live.size());
  return 0;
}
