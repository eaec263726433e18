// End-to-end benchmark of TMan: the six fundamental queries (temporal,
// spatial, spatio-temporal, ID-temporal, threshold and top-k similarity)
// and incremental ingest, driven by one closed-loop client against a store
// bulk-loaded at set-up.
//
//   tman_perfbench --workload scale1|scale4 --seed N --seconds S
//                  --trace 0|1 --dir DATA_DIR [--spans FILE]
//
// Every round inserts one batch of new trajectories, runs a few queries of
// each type, checks every answer against a brute-force oracle over the live
// set, and deletes the batch again. The deletes are a device of the benchmark:
// the store keeps its size however fast the system runs, so a faster ingest
// path cannot make the queries slower by growing the data they scan. Rounds
// run in episodes of a fixed length, each on a freshly set-up store (see
// Bench::Run).
//
// --trace 0 prints the end-to-end metrics (median latency per query type,
// per Insert call and per delete, and set-up time). --trace 1 runs the same
// loop with EXPLAIN ANALYZE traces and a metrics registry attached and
// prints per-layer metrics instead; --spans writes that run's spans as JSON
// lines. The last line of stdout is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics". Progress goes to stderr.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tman.h"
#include "geo/similarity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "traj/generator.h"

namespace {

using tman::Status;
using tman::core::QueryOptions;
using tman::core::QueryStats;
using tman::core::TMan;
using tman::core::TManOptions;
using tman::geo::MBR;
using tman::geo::TimedPoint;
using tman::traj::DatasetSpec;
using tman::traj::Trajectory;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- Workloads ---------------------------------------------------------------

// Both workloads are the repository's Fig. 22(b) update benchmark
// (bench/bench_fig22_scalability.cc) at one TMAN_SCALE each: Lorry-like
// trips, LorryCount()/2 = 2,000 x scale of them bulk-loaded, Insert batches
// of 500 trips, and the benches' DefaultOptions (bench/bench_util.h) with
// Fig. 22(b)'s re-encode threshold of 128 buffered shapes.
constexpr size_t kInsertBatch = 500;

// Queries of each type per Insert batch. Fig. 22(b) runs no queries; this
// is a device of the benchmark that gives each query type several hundred
// samples per run next to a few dozen Insert calls.
constexpr uint64_t kQuerySetsPerRound = 8;

struct Workload {
  std::string name;
  DatasetSpec spec;
  size_t base_trajectories = 0;  // bulk-loaded at set-up
  TManOptions options;
};

bool FindWorkload(const std::string& name, Workload* w) {
  size_t scale = 0;
  if (name == "scale1") scale = 1;
  if (name == "scale4") scale = 4;
  if (scale == 0) return false;
  w->name = name;
  w->spec = tman::traj::LorryLikeSpec();
  w->base_trajectories = 2000 * scale;
  TManOptions& o = w->options;
  o.bounds = w->spec.bounds;
  o.tr.origin = 0;
  o.tr.period_seconds = 1800;
  o.tr.max_periods = w->spec.long_max / o.tr.period_seconds + 2;
  o.xzt.origin = 0;
  o.xzt.period_seconds = 7LL * 24 * 3600;
  o.xzt.max_resolution = 14;
  o.tshape = tman::index::TShapeConfig{3, 3, 15};
  o.xz2 = tman::index::XZ2Config{15};
  o.num_shards = 4;
  o.num_servers = 5;
  o.genetic.generations = 25;
  o.kv.write_buffer_size = 2 * 1024 * 1024;
  o.buffer_shape_threshold = 128;
  return true;
}

// --- Queries -----------------------------------------------------------------

enum QueryType { kTRQ, kSRQ, kSTRQ, kIDT, kThreshold, kTopK, kNumQueryTypes };
const char* const kQueryNames[kNumQueryTypes] = {"trq", "srq",       "strq",
                                                 "idt", "threshold", "topk"};

// TRQ and IDT go through the TR and IDT secondary tables and fetch primary
// rows by key; the other four plan over the TShape catalog.
bool UsesCatalog(int type) { return type != kTRQ && type != kIDT; }

// Query sizes, after the paper's defaults (§VI "Setting"): time-window
// length and square side per type (0 = the type takes no such window).
constexpr int64_t kWindowSeconds[kNumQueryTypes] = {3600, 0, 6 * 3600,
                                                    24 * 3600, 0, 0};
constexpr double kWindowMeters[kNumQueryTypes] = {0, 1000, 3000, 0, 0, 0};
constexpr double kSimilarityThreshold = 0.015;  // degrees, discrete Fréchet
constexpr size_t kTopKSize = 10;
constexpr tman::geo::SimilarityMeasure kMeasure =
    tman::geo::SimilarityMeasure::kFrechet;

// The i-th parameters of each query type follow low-discrepancy sequences
// (additive recurrences with irrational steps) shifted by offsets drawn
// from the seed. Every seed gets new windows and probes, yet any prefix of
// a run's sequence covers the city, the time span, the objects and the
// range of probe lengths evenly, so a run's median reflects the system
// rather than where a few random windows happened to fall.
class QueryParams {
 public:
  QueryParams(const DatasetSpec& spec, const std::vector<Trajectory>& base,
              uint64_t seed)
      : spec_(spec), base_(base) {
    tman::Random rnd(seed * 0x9e3779b97f4a7c15ULL + 17);
    for (double& o : offsets_) o = rnd.NextDouble();
    // Objects by trip count and probes by length, so that the sequences
    // stratify over how much work an IDT query or a similarity probe does.
    std::map<std::string, size_t> trips;
    for (const Trajectory& t : base) trips[t.oid]++;
    for (const auto& [oid, n] : trips) oids_.push_back(oid);
    std::stable_sort(oids_.begin(), oids_.end(),
                     [&](const std::string& a, const std::string& b) {
                       return trips[a] < trips[b];
                     });
    for (size_t i = 0; i < base.size(); i++) probes_.push_back(i);
    std::stable_sort(probes_.begin(), probes_.end(), [&](size_t a, size_t b) {
      return base[a].points.size() < base[b].points.size();
    });
  }

  tman::traj::TimeWindow Time(QueryType type, uint64_t i) const {
    const int64_t length = kWindowSeconds[type];
    const double u = Sequence(3 * type, kGolden, i);
    const int64_t ts =
        spec_.t0 + static_cast<int64_t>(
                       u * static_cast<double>(spec_.horizon_seconds - length));
    return {ts, ts + length};
  }

  MBR Space(QueryType type, uint64_t i) const {
    const tman::traj::SpatialBounds& core = spec_.core;
    const double cx = core.min_lon + Sequence(3 * type + 1, kPlastic1, i) *
                                         (core.max_lon - core.min_lon);
    const double cy = core.min_lat + Sequence(3 * type + 2, kPlastic2, i) *
                                         (core.max_lat - core.min_lat);
    const double mid_lat = (core.min_lat + core.max_lat) / 2;
    const double h = tman::geo::MetersToDegreesLat(kWindowMeters[type]);
    const double w =
        tman::geo::MetersToDegreesLon(kWindowMeters[type], mid_lat);
    return MBR{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
  }

  const std::string& Oid(uint64_t i) const {
    return oids_[Pick(kOidSlot, kSqrt2, i, oids_.size())];
  }

  const Trajectory& Probe(uint64_t i) const {
    return base_[probes_[Pick(kProbeSlot, kSqrt3, i, probes_.size())]];
  }

 private:
  // Fractional parts of irrational steps: the golden ratio, the plastic
  // number's inverse powers (the 2-D R2 sequence) and two square roots, so
  // the time, position, object and probe sequences stay uncorrelated.
  static constexpr double kGolden = 0.6180339887498949;
  static constexpr double kPlastic1 = 0.7548776662466927;
  static constexpr double kPlastic2 = 0.5698402909980532;
  static constexpr double kSqrt2 = 0.4142135623730951;
  static constexpr double kSqrt3 = 0.7320508075688772;
  // Offset slots: time, x and y per query type, then objects and probes.
  static constexpr int kOidSlot = 3 * kNumQueryTypes;
  static constexpr int kProbeSlot = kOidSlot + 1;

  double Sequence(int slot, double step, uint64_t i) const {
    const double x = offsets_[slot] + static_cast<double>(i) * step;
    return x - std::floor(x);
  }

  size_t Pick(int slot, double step, uint64_t i, size_t n) const {
    return std::min(n - 1, static_cast<size_t>(Sequence(slot, step, i) *
                                               static_cast<double>(n)));
  }

  const DatasetSpec& spec_;
  const std::vector<Trajectory>& base_;
  double offsets_[kProbeSlot + 1] = {};
  std::vector<std::string> oids_;
  std::vector<size_t> probes_;  // indices into base_, shortest first
};

// --- Oracle ------------------------------------------------------------------

// Brute-force answers over the live set: the bulk-loaded base followed by
// the current round's inserts.
class Oracle {
 public:
  struct Entry {
    const Trajectory* t = nullptr;
    MBR mbr;
  };

  void Add(const Trajectory* t) { live_.push_back(Entry{t, t->ComputeMBR()}); }
  void Truncate(size_t n) { live_.resize(n); }
  size_t size() const { return live_.size(); }

  std::vector<std::string> TimeRange(int64_t ts, int64_t te) const {
    return Select([&](const Entry& e) {
      return e.t->IntersectsTimeRange(ts, te);
    });
  }

  std::vector<std::string> SpaceRange(const MBR& rect) const {
    return Select([&](const Entry& e) {
      return e.mbr.Intersects(rect) &&
             tman::geo::PolylineIntersectsRect(e.t->points, rect);
    });
  }

  std::vector<std::string> SpaceTimeRange(const MBR& rect, int64_t ts,
                                          int64_t te) const {
    return Select([&](const Entry& e) {
      return e.t->IntersectsTimeRange(ts, te) && e.mbr.Intersects(rect) &&
             tman::geo::PolylineIntersectsRect(e.t->points, rect);
    });
  }

  std::vector<std::string> IDTemporal(const std::string& oid, int64_t ts,
                                      int64_t te) const {
    return Select([&](const Entry& e) {
      return e.t->oid == oid && e.t->IntersectsTimeRange(ts, te);
    });
  }

  std::vector<std::string> Threshold(const Trajectory& q,
                                     double threshold) const {
    const Entry qe{&q, q.ComputeMBR()};
    return Select([&](const Entry& e) {
      // Discrete Fréchet couples the first points, the last points and
      // every point of both curves; each gives a cheap necessary test.
      if (!qe.mbr.Expanded(threshold).Contains(e.mbr) ||
          !e.mbr.Expanded(threshold).Contains(qe.mbr) ||
          EndpointBound(q, *e.t) > threshold) {
        return false;
      }
      return tman::geo::DiscreteFrechet(q.points, e.t->points) <= threshold;
    });
  }

  // The k smallest Fréchet distances to `q` over the live set, excluding q
  // itself, ascending.
  std::vector<double> TopKDistances(const Trajectory& q, size_t k) const {
    const MBR qmbr = q.ComputeMBR();
    std::vector<std::pair<double, const Trajectory*>> bounds;
    bounds.reserve(live_.size());
    for (const Entry& e : live_) {
      if (e.t->tid == q.tid) continue;
      const double lb = std::max(tman::geo::MBRLowerBound(qmbr, e.mbr),
                                 EndpointBound(q, *e.t));
      bounds.emplace_back(lb, e.t);
    }
    std::sort(bounds.begin(), bounds.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> best;  // max-heap of the k best so far
    for (const auto& [lb, t] : bounds) {
      if (best.size() == k && lb > best.front()) break;
      const double d = tman::geo::DiscreteFrechet(q.points, t->points);
      if (best.size() < k) {
        best.push_back(d);
        std::push_heap(best.begin(), best.end());
      } else if (d < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = d;
        std::push_heap(best.begin(), best.end());
      }
    }
    std::sort(best.begin(), best.end());
    return best;
  }

 private:
  static double EndpointBound(const Trajectory& a, const Trajectory& b) {
    auto dist = [](const TimedPoint& p, const TimedPoint& q) {
      return std::hypot(p.x - q.x, p.y - q.y);
    };
    return std::max(dist(a.points.front(), b.points.front()),
                    dist(a.points.back(), b.points.back()));
  }

  template <typename Pred>
  std::vector<std::string> Select(Pred pred) const {
    std::vector<std::string> tids;
    for (const Entry& e : live_) {
      if (pred(e)) tids.push_back(e.t->tid);
    }
    std::sort(tids.begin(), tids.end());
    return tids;
  }

  std::vector<Entry> live_;
};

std::vector<std::string> SortedTids(const std::vector<Trajectory>& v) {
  std::vector<std::string> tids;
  tids.reserve(v.size());
  for (const Trajectory& t : v) tids.push_back(t.tid);
  std::sort(tids.begin(), tids.end());
  return tids;
}

bool SameDistances(const std::vector<double>& got,
                   const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); i++) {
    if (std::fabs(got[i] - want[i]) > 1e-9 * (1 + std::fabs(want[i]))) {
      return false;
    }
  }
  return true;
}

// --- Per-layer accounting (--trace 1) ----------------------------------------

// Registry instruments a traced run reads: a counter's value, or a
// histogram's sample count or sum of samples (µs). Names the program no
// longer registers read as zero.
enum Instrument {
  kBlockHits,
  kBlockMisses,
  kCatalogHits,
  kCatalogMisses,
  kGets,
  kGetMicros,
  kClusterScans,
  kScanRegions,  // regions the cluster scans fanned out to, summed
  kWrites,
  kWriteMicros,
  kFlushes,
  kCompactions,
  kCompactionBytes,
  kReencodes,
  kRowsRewritten,
  kNumInstruments
};

struct InstrumentSource {
  enum Kind { kCounter, kCount, kSum };
  const char* name;
  Kind kind;
};

const InstrumentSource kSources[kNumInstruments] = {
    {"tman_kv_block_cache_hits_total", InstrumentSource::kCounter},
    {"tman_kv_block_cache_misses_total", InstrumentSource::kCounter},
    {"tman_index_cache_hits_total", InstrumentSource::kCounter},
    {"tman_index_cache_misses_total", InstrumentSource::kCounter},
    {"tman_kv_get_micros", InstrumentSource::kCount},
    {"tman_kv_get_micros", InstrumentSource::kSum},
    {"tman_cluster_scan_fanout_regions", InstrumentSource::kCount},
    {"tman_cluster_scan_fanout_regions", InstrumentSource::kSum},
    {"tman_kv_write_micros", InstrumentSource::kCount},
    {"tman_kv_write_micros", InstrumentSource::kSum},
    {"tman_kv_flushes_total", InstrumentSource::kCounter},
    {"tman_kv_compactions_total", InstrumentSource::kCounter},
    {"tman_kv_compaction_bytes_written_total", InstrumentSource::kCounter},
    {"tman_core_reencodes_total", InstrumentSource::kCounter},
    {"tman_core_rows_rewritten_total", InstrumentSource::kCounter},
};

using Reading = std::array<double, kNumInstruments>;

Reading Read(tman::obs::MetricsRegistry* registry) {
  Reading r{};
  for (int i = 0; i < kNumInstruments; i++) {
    const InstrumentSource& src = kSources[i];
    uint64_t v = 0;
    switch (src.kind) {
      case InstrumentSource::kCounter:
        v = registry->GetCounter(src.name)->value();
        break;
      case InstrumentSource::kCount:
        v = registry->GetHistogram(src.name)->count();
        break;
      case InstrumentSource::kSum:
        v = registry->GetHistogram(src.name)->sum();
        break;
    }
    r[i] = static_cast<double>(v);
  }
  return r;
}

void AddDelta(const Reading& before, const Reading& after, Reading* sum) {
  for (int i = 0; i < kNumInstruments; i++) {
    (*sum)[i] += after[i] - before[i];
  }
}

// Sums over all queries of one type, from QueryStats, the trace tree and
// registry deltas read around each call. The client is the store's only
// caller, so a delta is that query's work plus whatever flush or compaction
// ran in the background meanwhile.
struct LayerSums {
  uint64_t queries = 0;
  double latency_ms = 0;     // the benchmark's span around the call
  double plan_ms = 0;        // "planning" spans: index lookups, windows
  double scan_ms = 0;        // "scan ..." spans: dispatch, kv read, filter,
                             // decode and exact checks streamed per row
  double queue_wait_ms = 0;  // region tasks waiting for a scan worker
  double windows = 0;
  double elements_visited = 0;
  double rows_scanned = 0;
  double results = 0;
  double exact_distances = 0;
  Reading io{};
};

void AccumulateSpans(const tman::obs::TraceSpan& span, LayerSums* sums) {
  const std::string& name = span.name();
  if (name == "planning") {
    sums->plan_ms += span.duration_ms();
  } else if (name.rfind("scan ", 0) == 0) {
    sums->scan_ms += span.duration_ms();
  } else if (name.rfind("region ", 0) == 0) {
    sums->queue_wait_ms += span.GetAnnotation("queue_wait_ms");
  }
  for (const auto& child : span.children()) AccumulateSpans(*child, sums);
}

// Spans written by --spans: one JSON line per span; spans of one operation
// share "op", and "parent" is the index of the causing span in that op.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Records the benchmark's span around one call into TMan, with the
  // system's own trace tree (if any) below it.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, const tman::obs::TraceSpan* tree) {
    if (!enabled_) return;
    const uint64_t op = next_op_++;
    const double start_us = Micros(start);
    const double end_us = Micros(end);
    AddLine(op, 0, -1, name, start_us, end_us - start_us);
    if (tree != nullptr) {
      int index = 1;
      AddTree(op, *tree, 0, &index);
    }
  }

  bool Write(const std::string& path) const {
    if (!enabled_) return true;
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const std::string& line : lines_) fprintf(f, "%s\n", line.c_str());
    return fclose(f) == 0;
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  void AddTree(uint64_t op, const tman::obs::TraceSpan& span, int parent,
               int* index) {
    const int self = (*index)++;
    AddLine(op, self, parent, span.name(), -1, span.duration_ms() * 1000);
    for (const auto& child : span.children()) {
      AddTree(op, *child, self, index);
    }
  }

  void AddLine(uint64_t op, int self, int parent, const std::string& name,
               double start_us, double duration_us) {
    char buf[256];
    snprintf(buf, sizeof(buf),
             "{\"op\": %llu, \"span\": %d, \"parent\": %d, \"name\": \"%s\", "
             "\"start_us\": %.1f, \"duration_us\": %.1f}",
             static_cast<unsigned long long>(op), self, parent, name.c_str(),
             start_us, duration_us);
    lines_.emplace_back(buf);
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  uint64_t next_op_ = 0;
  std::vector<std::string> lines_;
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

// --- The run -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
  std::string spans;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args), w_(w), spans_(args.trace && !args.spans.empty()) {}

  // The store's threads hold pointers into registry_.
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  // Opens a fresh store under `dir` and bulk-loads the base data.
  Status SetUp(const std::string& dir, tman::obs::MetricsRegistry* registry,
               std::unique_ptr<TMan>* out);

  // One round: an Insert, the query sets, the deletes. `measure` records
  // samples; warm-up rounds pass false.
  void Round(bool measure);

  void RunQuery(QueryType type, uint64_t i, bool measure);
  void Fail(const std::string& what);

  std::vector<Metric> EndToEnd(double setup_s) const;
  std::vector<Metric> PerLayer() const;
  void PrintResult(const std::vector<Metric>& metrics) const;

  const Args& args_;
  const Workload& w_;
  std::vector<Trajectory> base_;
  std::unique_ptr<QueryParams> params_;
  // Declared before tman_ so it outlives the store's threads that record
  // into it.
  tman::obs::MetricsRegistry registry_;
  std::unique_ptr<TMan> tman_;
  Oracle oracle_;
  SpanLog spans_;

  uint64_t round_ = 0;
  uint64_t measured_rounds_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reported_failures_ = 0;

  std::vector<double> query_ms_[kNumQueryTypes];
  LayerSums layers_[kNumQueryTypes];
  std::vector<double> insert_ms_;  // per Insert call
  std::vector<double> delete_ms_;  // per DeleteTrajectory call
  Reading loop_io_{};              // registry deltas over the measured loop
};

void Bench::Fail(const std::string& what) {
  failed_++;
  if (reported_failures_++ < 10) {
    fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

Status Bench::SetUp(const std::string& dir,
                    tman::obs::MetricsRegistry* registry,
                    std::unique_ptr<TMan>* out) {
  std::filesystem::remove_all(dir);
  TManOptions options = w_.options;
  options.kv.metrics = registry;
  Status s = TMan::Open(options, dir, out);
  if (s.ok()) s = (*out)->BulkLoad(base_);
  if (s.ok()) s = (*out)->Flush();
  return s;
}

void Bench::RunQuery(QueryType type, uint64_t i, bool measure) {
  const tman::traj::TimeWindow tw = params_->Time(type, i);
  const MBR rect = params_->Space(type, i);
  const std::string& oid = params_->Oid(i);
  const Trajectory& probe = params_->Probe(i);
  QueryStats stats;
  QueryOptions qopts;
  qopts.trace = args_.trace;
  QueryStats* stats_arg = args_.trace ? &stats : nullptr;
  std::vector<Trajectory> out;

  const Reading before = args_.trace ? Read(&registry_) : Reading{};
  const Clock::time_point start = Clock::now();
  Status s;
  switch (type) {
    case kTRQ:
      s = tman_->TemporalRangeQuery(tw.ts, tw.te, &out, stats_arg, qopts);
      break;
    case kSRQ:
      s = tman_->SpatialRangeQuery(rect, &out, stats_arg, qopts);
      break;
    case kSTRQ:
      s = tman_->SpatioTemporalRangeQuery(rect, tw.ts, tw.te, &out, stats_arg,
                                          qopts);
      break;
    case kIDT:
      s = tman_->IDTemporalQuery(oid, tw.ts, tw.te, &out, stats_arg, qopts);
      break;
    case kThreshold:
      s = tman_->ThresholdSimilarityQuery(probe, kMeasure,
                                          kSimilarityThreshold, &out,
                                          stats_arg, qopts);
      break;
    case kTopK:
      s = tman_->TopKSimilarityQuery(probe, kMeasure, kTopKSize, &out,
                                     stats_arg, qopts);
      break;
    case kNumQueryTypes:
      break;
  }
  const Clock::time_point end = Clock::now();
  const Reading after = args_.trace ? Read(&registry_) : Reading{};
  if (!measure) return;

  attempted_++;
  const std::string what =
      std::string(kQueryNames[type]) + " #" + std::to_string(i);
  if (!s.ok()) {
    Fail(what + ": " + s.ToString());
    return;
  }
  bool correct = true;
  switch (type) {
    case kTRQ:
      correct = SortedTids(out) == oracle_.TimeRange(tw.ts, tw.te);
      break;
    case kSRQ:
      correct = SortedTids(out) == oracle_.SpaceRange(rect);
      break;
    case kSTRQ:
      correct = SortedTids(out) == oracle_.SpaceTimeRange(rect, tw.ts, tw.te);
      break;
    case kIDT:
      correct = SortedTids(out) == oracle_.IDTemporal(oid, tw.ts, tw.te);
      break;
    case kThreshold:
      correct =
          SortedTids(out) == oracle_.Threshold(probe, kSimilarityThreshold);
      break;
    case kTopK: {
      std::vector<double> got;
      for (const Trajectory& t : out) {
        got.push_back(tman::geo::DiscreteFrechet(probe.points, t.points));
      }
      std::sort(got.begin(), got.end());
      correct = SameDistances(got, oracle_.TopKDistances(probe, kTopKSize));
      break;
    }
    case kNumQueryTypes:
      break;
  }
  if (!correct) {
    Fail(what + ": result differs from the brute-force answer");
    return;
  }

  query_ms_[type].push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
  if (args_.trace) {
    LayerSums& l = layers_[type];
    l.queries++;
    l.latency_ms += query_ms_[type].back();
    l.windows += static_cast<double>(stats.windows);
    l.elements_visited += static_cast<double>(stats.elements_visited);
    l.rows_scanned += static_cast<double>(stats.candidates);
    l.results += static_cast<double>(stats.results);
    l.exact_distances +=
        static_cast<double>(stats.exact_distance_computations);
    if (stats.trace != nullptr) AccumulateSpans(*stats.trace, &l);
    AddDelta(before, after, &l.io);
    spans_.Record(std::string("query ") + kQueryNames[type], start, end,
                  stats.trace.get());
  }
}

void Bench::Round(bool measure) {
  // Each round's batch is generated from (seed, round) under tids never
  // used before, so the shape catalog keeps meeting shapes it has not seen
  // and Insert keeps reaching the re-encode threshold.
  std::vector<Trajectory> batch = tman::traj::Generate(
      w_.spec, kInsertBatch, args_.seed * 0x9e3779b97f4a7c15ULL + round_ + 1);
  for (size_t j = 0; j < batch.size(); j++) {
    batch[j].tid = "ins-" + std::to_string(round_) + "-" + std::to_string(j);
  }
  const size_t base_size = oracle_.size();
  {
    const Clock::time_point start = Clock::now();
    const Status s = tman_->Insert(batch);
    const Clock::time_point end = Clock::now();
    for (const Trajectory& t : batch) oracle_.Add(&t);
    if (measure) {
      attempted_++;
      if (s.ok()) {
        insert_ms_.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        spans_.Record("insert", start, end, nullptr);
      } else {
        Fail("insert: " + s.ToString());
      }
    }
  }

  for (uint64_t set = 0; set < kQuerySetsPerRound; set++) {
    for (int type = 0; type < kNumQueryTypes; type++) {
      RunQuery(static_cast<QueryType>(type),
               round_ * kQuerySetsPerRound + set, measure);
    }
  }

  for (const Trajectory& t : batch) {
    const Clock::time_point start = Clock::now();
    const Status s = tman_->DeleteTrajectory(t.oid, t.tid);
    const Clock::time_point end = Clock::now();
    if (!measure) continue;
    attempted_++;
    if (!s.ok()) {
      Fail("delete " + t.tid + ": " + s.ToString());
      continue;
    }
    delete_ms_.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    spans_.Record("delete", start, end, nullptr);
  }
  oracle_.Truncate(base_size);
  round_++;
  if (measure) measured_rounds_++;
}

int Bench::Run() {
  base_ = tman::traj::Generate(w_.spec, w_.base_trajectories, args_.seed);
  params_ = std::make_unique<QueryParams>(w_.spec, base_, args_.seed);
  for (const Trajectory& t : base_) oracle_.Add(&t);

  // The run is a sequence of episodes, started until --seconds have passed.
  // Each sets up a fresh store (timed: the samples of setup_s), warms it up
  // and measures a fixed number of rounds. Inserts grow the shape catalog
  // and deletes leave tombstones, so a store slows with every round it
  // serves; fresh stores make every episode replay the same growth, and no
  // metric depends on how many rounds a faster system fits into the run.
  constexpr int kWarmUpRounds = 2;
  constexpr int kMeasuredRounds = 6;
  std::vector<double> setup_s;
  double store_mib = 0;
  const Clock::time_point start = Clock::now();
  const double budget_ms = 1000.0 * args_.seconds;
  while (setup_s.empty() || MillisSince(start) < budget_ms) {
    const std::string dir =
        args_.dir + "/store-" + std::to_string(setup_s.size());
    const Clock::time_point setup_start = Clock::now();
    Status s = SetUp(dir, args_.trace ? &registry_ : nullptr, &tman_);
    setup_s.push_back(MillisSince(setup_start) / 1000);
    if (!s.ok()) {
      fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    store_mib = static_cast<double>(tman_->StorageBytes()) / 1048576;

    for (int i = 0; i < kWarmUpRounds; i++) Round(false);
    const Reading before = Read(&registry_);
    for (int i = 0; i < kMeasuredRounds; i++) Round(true);
    AddDelta(before, Read(&registry_), &loop_io_);

    // After every round's deletes the store must hold exactly the base set.
    const int64_t all_ts = w_.spec.t0 - 1;
    const int64_t all_te = w_.spec.t0 + w_.spec.horizon_seconds + 1;
    std::vector<Trajectory> all;
    attempted_++;
    s = tman_->TemporalRangeQuery(all_ts, all_te, &all);
    if (!s.ok() || SortedTids(all) != oracle_.TimeRange(all_ts, all_te)) {
      Fail("final scan: the store does not hold exactly the bulk-loaded set");
    }
    tman_.reset();
    std::filesystem::remove_all(dir);
  }
  const double run_s = MillisSince(start) / 1000;

  fprintf(stderr,
          "workload %s seed %llu: %zu episodes, %llu measured rounds in "
          "%.1f s, %llu ops, %llu failed, %zu base trajectories (%.1f MiB "
          "stored)\n",
          w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
          setup_s.size(), static_cast<unsigned long long>(measured_rounds_),
          run_s, static_cast<unsigned long long>(attempted_),
          static_cast<unsigned long long>(failed_), base_.size(), store_mib);
  auto summary = [](const char* name, std::vector<double> v) {
    if (v.empty()) return;
    std::sort(v.begin(), v.end());
    fprintf(stderr, "  %-10s n=%-6zu p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
            name, v.size(), v[v.size() / 2], v[v.size() * 95 / 100],
            v[v.size() * 99 / 100]);
  };
  for (int type = 0; type < kNumQueryTypes; type++) {
    summary(kQueryNames[type], query_ms_[type]);
  }
  summary("insert", insert_ms_);
  summary("delete", delete_ms_);
  fprintf(stderr, "  setup      n=%-6zu min %.3f s  max %.3f s\n",
          setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
          *std::max_element(setup_s.begin(), setup_s.end()));

  std::filesystem::remove_all(args_.dir);
  if (!spans_.Write(args_.spans)) {
    fprintf(stderr, "cannot write spans to %s\n", args_.spans.c_str());
    return 1;
  }
  PrintResult(args_.trace ? PerLayer() : EndToEnd(Median(setup_s)));
  return 0;
}

std::vector<Metric> Bench::EndToEnd(double setup_s) const {
  std::vector<Metric> m;
  for (int type = 0; type < kNumQueryTypes; type++) {
    m.push_back({std::string(kQueryNames[type]) + "_ms",
                 Median(query_ms_[type]), "ms"});
  }
  m.push_back({"insert_ms", Median(insert_ms_), "ms"});
  m.push_back({"delete_ms", Median(delete_ms_), "ms"});
  m.push_back({"setup_s", setup_s, "s"});
  return m;
}

std::vector<Metric> Bench::PerLayer() const {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  std::vector<Metric> m;
  Reading q{};  // registry deltas summed over every measured query
  for (int type = 0; type < kNumQueryTypes; type++) {
    const LayerSums& l = layers_[type];
    const double n = static_cast<double>(l.queries);
    for (int i = 0; i < kNumInstruments; i++) q[i] += l.io[i];
    const std::string t = kQueryNames[type];
    m.push_back({t + ".plan_ms", ratio(l.plan_ms, n), "ms"});
    m.push_back({t + ".scan_ms", ratio(l.scan_ms, n), "ms"});
    m.push_back({t + ".self_ms", ratio(l.latency_ms - l.plan_ms - l.scan_ms, n),
                 "ms"});
    m.push_back({t + ".queue_wait_ms", ratio(l.queue_wait_ms, n), "ms"});
    m.push_back({t + ".windows", ratio(l.windows, n), "count"});
    if (UsesCatalog(type)) {
      m.push_back({t + ".elements_visited", ratio(l.elements_visited, n),
                   "count"});
      m.push_back({t + ".catalog_misses", ratio(l.io[kCatalogMisses], n),
                   "count"});
    } else {
      m.push_back({t + ".gets", ratio(l.io[kGets], n), "count"});
    }
    m.push_back({t + ".rows_scanned", ratio(l.rows_scanned, n), "count"});
    m.push_back({t + ".useful_ratio", ratio(l.results, l.rows_scanned),
                 "ratio"});
    m.push_back({t + ".block_reads", ratio(l.io[kBlockMisses], n), "count"});
    if (type == kThreshold || type == kTopK) {
      m.push_back({t + ".exact_distances", ratio(l.exact_distances, n),
                   "count"});
    }
  }
  m.push_back({"query.block_cache_hit_ratio",
               ratio(q[kBlockHits], q[kBlockHits] + q[kBlockMisses]),
               "ratio"});
  m.push_back({"query.catalog_hit_ratio",
               ratio(q[kCatalogHits], q[kCatalogHits] + q[kCatalogMisses]),
               "ratio"});
  m.push_back({"query.get_us", ratio(q[kGetMicros], q[kGets]), "us"});
  m.push_back({"query.scan_fanout", ratio(q[kScanRegions], q[kClusterScans]),
               "count"});

  // The write path, over the whole measured loop. A round is one Insert of
  // kInsertBatch trips and as many deletes.
  const Reading& w = loop_io_;
  const double rounds = static_cast<double>(measured_rounds_);
  double insert_total_ms = 0;
  for (double v : insert_ms_) insert_total_ms += v;
  m.push_back({"insert.mean_ms",
               ratio(insert_total_ms, static_cast<double>(insert_ms_.size())),
               "ms"});
  m.push_back({"kv.write_us", ratio(w[kWriteMicros], w[kWrites]), "us"});
  m.push_back({"kv.flushes_per_round", ratio(w[kFlushes], rounds), "count"});
  m.push_back({"kv.compactions_per_round", ratio(w[kCompactions], rounds),
               "count"});
  m.push_back({"kv.compaction_kib_per_round",
               ratio(w[kCompactionBytes] / 1024, rounds), "KiB"});
  m.push_back({"core.reencodes_per_round", ratio(w[kReencodes], rounds),
               "count"});
  m.push_back({"core.rows_rewritten_per_round",
               ratio(w[kRowsRewritten], rounds), "count"});
  return m;
}

void Bench::PrintResult(const std::vector<Metric>& metrics) const {
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         failed_ == 0 ? "true" : "false",
         static_cast<unsigned long long>(attempted_),
         static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics.size(); i++) {
    const Metric& metric = metrics[i];
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           metric.name.c_str(),
           std::isfinite(metric.value) ? metric.value : 0.0, metric.unit);
  }
  printf("}}\n");
  fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args) ||
      !FindWorkload(args.workload, &workload)) {
    fprintf(stderr,
            "usage: tman_perfbench --workload scale1|scale4 --seed N "
            "--seconds S --trace 0|1 --dir DATA_DIR [--spans FILE]\n");
    return 2;
  }
  Bench bench(args, workload);
  return bench.Run();
}
