// Fig. 16: shape-code encoding ablation on the Lorry-like workload.
//  (a) number of used shapes per enlarged element (alpha=beta=5);
//  (b) SRQ time under bitmap / greedy / genetic encodings, XZ*, the
//      inverted-list alternative, and TShape without the index cache;
//  (c) storage (bulk load + flush) time of each encoding: the median and
//      IQR of repeated loads into fresh stores.

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/filters.h"
#include "core/record.h"
#include "core/rowkey.h"
#include "core/tman.h"
#include "index/quadkey.h"
#include "index/tshape_index.h"
#include "traj/generator.h"

namespace tman::bench {
namespace {

constexpr int kLoads = 5;  // timed loads of each configuration

// The "inverted list" alternative from Fig. 16: instead of one shape code,
// a trajectory row is stored once per intersected cell; queries scan the
// cells intersecting the window and deduplicate.
class InvertedListStore {
 public:
  InvertedListStore(const traj::DatasetSpec& spec, const std::string& path)
      : spec_(spec),
        tshape_(index::TShapeConfig{5, 5, 15}),
        cluster_(path, 5, kv::Options()) {
    cluster_.CreateTable("inv", 4);
    table_ = cluster_.GetTable("inv");
  }

  double Load(const std::vector<traj::Trajectory>& data) {
    Stopwatch watch;
    std::vector<cluster::Row> rows;
    for (const auto& t : data) {
      std::string value;
      core::EncodeRecord(t, 8, &value);
      std::vector<geo::TimedPoint> norm;
      norm.reserve(t.points.size());
      for (const auto& p : t.points) {
        const geo::Point np = spec_.bounds.Normalize(geo::Point{p.x, p.y});
        norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
      }
      const index::TShapeEncoding enc = tshape_.Encode(norm);
      const uint8_t shard = core::ShardOfTid(t.tid, 4);
      // One row per visited cell of the enlarged element.
      for (int dy = 0; dy < 5; dy++) {
        for (int dx = 0; dx < 5; dx++) {
          if ((enc.shape & (1u << (dy * 5 + dx))) == 0) continue;
          index::QuadCell cell{enc.anchor.r,
                               enc.anchor.x + static_cast<uint32_t>(dx),
                               enc.anchor.y + static_cast<uint32_t>(dy)};
          if (cell.x >= (1u << cell.r) || cell.y >= (1u << cell.r)) continue;
          rows.push_back(cluster::Row{
              core::PrimaryKey(shard, index::QuadCode(cell, 15), t.tid),
              value});
        }
      }
    }
    // The same write path as TMan's BulkLoad: one SSTable per region of
    // the fresh table.
    table_->BulkLoad(rows);
    table_->Flush();
    return watch.ElapsedMillis();
  }

  void Query(const geo::MBR& rect, std::vector<traj::Trajectory>* out,
             core::QueryStats* stats) {
    Stopwatch watch;
    geo::MBR norm = spec_.bounds.Normalize(rect);
    // Candidate cells: BFS over the quad tree (cells, not enlargements —
    // rows are stored per actually-visited cell).
    std::vector<index::ValueRange> ranges;
    std::vector<index::QuadCell> queue;
    for (int q = 0; q < 4; q++) {
      queue.push_back(index::QuadCell{1, static_cast<uint32_t>(q >> 1),
                                      static_cast<uint32_t>(q & 1)});
    }
    while (!queue.empty()) {
      const index::QuadCell cell = queue.back();
      queue.pop_back();
      const geo::MBR rect_cell = cell.Rect();
      if (!norm.Intersects(rect_cell)) continue;
      const uint64_t code = index::QuadCode(cell, 15);
      if (norm.Contains(rect_cell)) {
        ranges.push_back(index::ValueRange{
            code, code + index::QuadSubtreeCount(cell.r, 15) - 1});
        continue;
      }
      ranges.push_back(index::ValueRange{code, code});
      if (cell.r < 15) {
        for (int q = 0; q < 4; q++) queue.push_back(cell.Child(q));
      }
    }
    ranges = index::MergeRanges(std::move(ranges));

    core::SpatialRangeFilter filter(rect);
    std::vector<cluster::Row> rows;
    cluster::CollectRowsSink collect(&rows);
    kv::ScanStats scan_stats;
    table_->MultiScan(core::WindowsForRanges(ranges, 4), &filter, 0, &collect,
                      &scan_stats);
    // Deduplicate: a trajectory appears once per visited cell.
    std::set<std::string> seen;
    for (const auto& row : rows) {
      traj::Trajectory t;
      if (!core::DecodeRecord(row.value, &t)) continue;
      if (seen.insert(t.tid).second) out->push_back(std::move(t));
    }
    if (stats != nullptr) {
      stats->candidates += scan_stats.scanned;
      stats->results += out->size();
      stats->execution_ms += watch.ElapsedMillis();
    }
  }

  void Quiesce() {
    table_->Flush();
    table_->CompactAll();
  }

  uint64_t StorageBytes() { return table_->TotalBytes(); }

 private:
  traj::DatasetSpec spec_;
  index::TShapeIndex tshape_;
  cluster::Cluster cluster_;
  cluster::ClusterTable* table_;
};

void UsedShapesPerElement(const traj::DatasetSpec& spec,
                          const std::vector<traj::Trajectory>& data) {
  index::TShapeIndex tshape(index::TShapeConfig{5, 5, 15});
  std::map<uint64_t, std::set<uint32_t>> elements;
  for (const auto& t : data) {
    std::vector<geo::TimedPoint> norm;
    norm.reserve(t.points.size());
    for (const auto& p : t.points) {
      const geo::Point np = spec.bounds.Normalize(geo::Point{p.x, p.y});
      norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
    }
    const index::TShapeEncoding enc = tshape.Encode(norm);
    elements[enc.quad_code].insert(enc.shape);
  }
  std::vector<double> counts;
  counts.reserve(elements.size());
  size_t below10 = 0, below100 = 0, below1000 = 0;
  size_t max_count = 0;
  for (const auto& [code, shapes] : elements) {
    counts.push_back(static_cast<double>(shapes.size()));
    if (shapes.size() < 10) below10++;
    if (shapes.size() < 100) below100++;
    if (shapes.size() < 1000) below1000++;
    max_count = std::max(max_count, shapes.size());
  }
  printf("\nFig 16(a) — used shapes per enlarged element (5x5)\n");
  PrintHeader({"metric", "value"});
  PrintCell(std::string("elements"));
  PrintCell(static_cast<uint64_t>(elements.size()));
  EndRow();
  PrintCell(std::string("max_shapes"));
  PrintCell(static_cast<uint64_t>(max_count));
  EndRow();
  PrintCell(std::string("median"));
  PrintCell(Median(counts));
  EndRow();
  PrintCell(std::string("frac<10"));
  PrintCell(static_cast<double>(below10) / elements.size());
  EndRow();
  PrintCell(std::string("frac<1000"));
  PrintCell(static_cast<double>(below1000) / elements.size());
  EndRow();
  (void)below100;
}

void Run() {
  const traj::DatasetSpec spec = traj::LorryLikeSpec();
  const auto data = traj::Generate(spec, LorryCount(), 16);
  const auto queries =
      traj::RandomSpaceWindows(spec, QueriesPerPoint(), 1500, 616);

  UsedShapesPerElement(spec, data);

  struct Config {
    std::string name;
    core::SpatialIndexKind spatial;
    index::ShapeOrderMethod method;
    bool cache;
  };
  const std::vector<Config> configs = {
      {"bitmap", core::SpatialIndexKind::kTShape,
       index::ShapeOrderMethod::kBitmap, true},
      {"greedy", core::SpatialIndexKind::kTShape,
       index::ShapeOrderMethod::kGreedy, true},
      {"genetic", core::SpatialIndexKind::kTShape,
       index::ShapeOrderMethod::kGenetic, true},
      {"xzstar", core::SpatialIndexKind::kXZStar,
       index::ShapeOrderMethod::kBitmap, true},
      {"no-cache", core::SpatialIndexKind::kTShape,
       index::ShapeOrderMethod::kBitmap, false},
  };

  // Every configuration, the inverted list last, loads kLoads times, each
  // time into a fresh store, and only one store is open at a time. Each
  // round loads all of them, in an order that rotates with the round, so
  // host drift spreads over every configuration. (c) is the load + flush
  // time; (b) times the SRQs on each configuration's last store, once it
  // is compacted so no background work runs under the queries.
  const size_t n = configs.size() + 1;
  struct Measured {
    std::vector<double> storage_ms;
    double query_ms = 0;
    uint64_t candidates = 0;
    uint64_t bytes = 0;
  };
  std::vector<Measured> measured(n);
  auto time_queries = [&](Measured* m, auto&& query) {
    std::vector<double> times, candidates;
    for (const auto& q : queries) {
      std::vector<traj::Trajectory> out;
      core::QueryStats stats;
      query(q.rect, &out, &stats);
      times.push_back(stats.execution_ms);
      candidates.push_back(static_cast<double>(stats.candidates));
    }
    m->query_ms = Median(times);
    m->candidates = static_cast<uint64_t>(Median(candidates));
  };
  for (int round = 0; round < kLoads; round++) {
    const bool last = round == kLoads - 1;
    for (size_t j = 0; j < n; j++) {
      const size_t c = (j + static_cast<size_t>(round)) % n;
      Measured* m = &measured[c];
      if (c == configs.size()) {
        InvertedListStore inverted(spec, BenchDir("fig16_inverted"));
        m->storage_ms.push_back(inverted.Load(data));
        if (!last) continue;
        inverted.Quiesce();
        time_queries(m, [&](const geo::MBR& rect,
                            std::vector<traj::Trajectory>* out,
                            core::QueryStats* stats) {
          inverted.Query(rect, out, stats);
        });
        m->bytes = inverted.StorageBytes();
        continue;
      }
      const Config& config = configs[c];
      core::TManOptions options = DefaultOptions(spec);
      options.tshape = index::TShapeConfig{5, 5, 15};
      options.spatial = config.spatial;
      options.encoding = config.method;
      options.use_index_cache = config.cache;
      std::unique_ptr<core::TMan> tman;
      if (!core::TMan::Open(options, BenchDir("fig16_" + config.name), &tman)
               .ok()) {
        continue;
      }
      Stopwatch load_watch;
      if (!tman->BulkLoad(data).ok()) continue;
      tman->Flush();
      m->storage_ms.push_back(load_watch.ElapsedMillis());
      if (!last) continue;
      tman->CompactAll();
      time_queries(m, [&](const geo::MBR& rect,
                          std::vector<traj::Trajectory>* out,
                          core::QueryStats* stats) {
        tman->SpatialRangeQuery(rect, out, stats);
      });
      m->bytes = tman->StorageBytes();
    }
  }

  printf("\nFig 16(b)(c) — encodings: SRQ query time; storage time over "
         "%d loads\n",
         kLoads);
  PrintHeader({"encoding", "query_ms", "candidates", "storage_ms",
               "storage_iqr", "bytes"});
  for (size_t c = 0; c < n; c++) {
    const Measured& m = measured[c];
    if (m.storage_ms.empty()) continue;
    PrintCell(c == configs.size() ? std::string("inverted") : configs[c].name);
    PrintCell(m.query_ms);
    PrintCell(m.candidates);
    PrintCell(Median(m.storage_ms));
    PrintCell(Percentile(m.storage_ms, 75) - Percentile(m.storage_ms, 25));
    PrintCell(m.bytes);
    EndRow();
  }
}

}  // namespace
}  // namespace tman::bench

int main() {
  printf("=== Fig. 16: effect of shape-code encoding ===\n");
  tman::bench::Run();
  return 0;
}
