#include "core/tman.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/stopwatch.h"
#include "core/filters.h"
#include "core/rowkey.h"
#include "kvstore/db_telemetry.h"
#include "index/shape_encoding.h"

namespace tman::core {

namespace {

constexpr size_t kWriteChunk = 4096;  // rows per Insert batch write

// Freezes a finished planning span with the plan's cost-model numbers.
void FinishPlanningSpan(obs::TraceSpan* span, const QueryPlan& plan) {
  if (span == nullptr) return;
  span->End();
  span->Annotate("plan", plan.name);
  span->Annotate("windows", static_cast<double>(plan.windows.size()));
  span->Annotate("index_values", static_cast<double>(plan.index_values));
  if (plan.elements_visited != 0) {
    span->Annotate("elements_visited",
                   static_cast<double>(plan.elements_visited));
  }
  if (plan.shapes_checked != 0) {
    span->Annotate("shapes_checked", static_cast<double>(plan.shapes_checked));
  }
  if (plan.estimated_fine_windows != 0) {
    span->Annotate("est_fine_windows",
                   static_cast<double>(plan.estimated_fine_windows));
  }
}

// "name=value;" for each option that decides a row key or a shape code, in
// a fixed order.
std::string KeyLayout(const TManOptions& o) {
  char bounds[128];
  snprintf(bounds, sizeof(bounds), "bounds=%.17g,%.17g,%.17g,%.17g;",
           o.bounds.min_lon, o.bounds.min_lat, o.bounds.max_lon,
           o.bounds.max_lat);
  const std::pair<const char*, int64_t> fields[] = {
      {"primary", static_cast<int>(o.primary)},
      {"spatial", static_cast<int>(o.spatial)},
      {"temporal", static_cast<int>(o.temporal)},
      {"tshape.alpha", o.tshape.alpha},
      {"tshape.beta", o.tshape.beta},
      {"tshape.max_resolution", o.tshape.max_resolution},
      {"tr.origin", o.tr.origin},
      {"tr.period_seconds", o.tr.period_seconds},
      {"tr.max_periods", o.tr.max_periods},
      {"xzt.origin", o.xzt.origin},
      {"xzt.period_seconds", o.xzt.period_seconds},
      {"xzt.max_resolution", o.xzt.max_resolution},
      {"xz2.max_resolution", o.xz2.max_resolution},
      {"num_shards", o.num_shards},
      {"use_index_cache", o.use_index_cache},
  };
  std::string row = bounds;
  for (const auto& [name, value] : fields) {
    row += std::string(name) + "=" + std::to_string(value) + ";";
  }
  return row;
}

// Compares the key layout with the meta table's config row (§IV-B(4):
// the index parameters and user configuration a store's keys were built
// with), or writes the row if the store has none.
Status CheckKeyLayout(cluster::ClusterTable* meta, const TManOptions& options,
                      const std::string& path) {
  const std::string key("\0config", 7);
  const std::string row = KeyLayout(options);
  std::string stored;
  Status s = meta->Get(key, &stored);
  if (s.IsNotFound()) return meta->Put(key, row);
  if (!s.ok() || stored == row) return s;
  // Name the first field that differs.
  size_t start = 0;
  for (size_t end = row.find(';'); end != std::string::npos &&
                                   stored.compare(start, end + 1 - start, row,
                                                  start, end + 1 - start) == 0;
       end = row.find(';', start)) {
    start = end + 1;
  }
  return Status::InvalidArgument(
      "store at " + path + " was built with " +
      stored.substr(start, stored.find(';', start) - start) + ", not " +
      row.substr(start, row.find(';', start) - start));
}

}  // namespace

std::shared_ptr<obs::TraceSpan> TMan::MaybeTraceRoot(const QueryOptions& qopts,
                                                     const QueryStats* stats,
                                                     const char* name) const {
  if ((qopts.trace && stats != nullptr) || trace_ring_ != nullptr) {
    return std::make_shared<obs::TraceSpan>(name);
  }
  return nullptr;
}

void TMan::FinishTrace(const QueryOptions& qopts,
                       std::shared_ptr<obs::TraceSpan> root, QueryStats* stats,
                       const Stopwatch& total) {
  if (root == nullptr) return;
  root->End();
  if (stats != nullptr) {
    root->Annotate("plan", stats->plan);
    root->Annotate("candidates", static_cast<double>(stats->candidates));
    root->Annotate("results", static_cast<double>(stats->results));
  }
  if (trace_ring_ != nullptr &&
      total.ElapsedMicros() >=
          static_cast<double>(options_.slow_query_micros)) {
    trace_ring_->Capture(*root);
    if (slow_queries_metric_ != nullptr) slow_queries_metric_->Inc();
  }
  if (qopts.trace && stats != nullptr) stats->trace = std::move(root);
}

TMan::TMan(const TManOptions& options, const std::string& path)
    : options_(options), path_(path) {}

TMan::~TMan() {
  {
    std::lock_guard<std::mutex> lock(reporter_mu_);
    reporter_stop_ = true;
  }
  reporter_cv_.notify_all();
  if (reporter_.joinable()) reporter_.join();
  if (balancer_ != nullptr) balancer_->Stop();  // before the tables go away
  if (telemetry_ != nullptr) telemetry_->Stop();
}

Status TMan::Open(const TManOptions& options, const std::string& path,
                  std::unique_ptr<TMan>* out) {
  out->reset();
  std::unique_ptr<TMan> tman(new TMan(options, path));
  Status s = tman->Init();
  if (!s.ok()) return s;
  *out = std::move(tman);
  return Status::OK();
}

Status TMan::Init() {
  if (options_.bounds.width() <= 0 || options_.bounds.height() <= 0) {
    return Status::InvalidArgument("dataset bounds must be non-degenerate");
  }
  if (options_.telemetry_port >= 0 && options_.event_log_capacity > 0) {
    // The listener is borrowed by every region store, so it (and the ring
    // it writes into) must be created before the cluster and outlive it
    // (member declaration order).
    event_log_ = std::make_unique<obs::EventLog>(options_.event_log_capacity);
    event_listener_ = std::make_unique<kv::EventLogListener>(event_log_.get());
    options_.kv.listeners.push_back(event_listener_.get());
  }
  if (options_.slow_query_micros > 0) {
    trace_ring_ =
        std::make_unique<obs::TraceRing>(options_.slow_query_ring_capacity);
  }
  cluster_ = std::make_unique<cluster::Cluster>(path_, options_.num_servers,
                                                options_.kv);
  // The meta table first: a store built with another key layout is refused
  // before any other table opens.
  Status s = cluster_->CreateTable("meta", 1);
  if (!s.ok()) return s;
  meta_table_ = cluster_->GetTable("meta");
  s = CheckKeyLayout(meta_table_, options_, path_);
  if (!s.ok()) return s;
  if (options_.retention_seconds > 0) {
    // Retention applies to the primary table only; secondary tables store
    // primary-key strings as values, which the record decoder must never
    // be pointed at (see core/ttl_filter.h). The filter outlives the
    // cluster (member declaration order).
    ttl_filter_ = std::make_unique<TtlCompactionFilter>(
        options_.retention_seconds, options_.retention_clock);
    kv::Options primary_opts = options_.kv;
    primary_opts.compaction_filter = ttl_filter_.get();
    s = cluster_->CreateTable("primary", options_.num_shards, &primary_opts);
  } else {
    s = cluster_->CreateTable("primary", options_.num_shards);
  }
  if (!s.ok()) return s;
  s = cluster_->CreateTable("tr_idx", options_.num_shards);
  if (!s.ok()) return s;
  s = cluster_->CreateTable("idt_idx", options_.num_shards);
  if (!s.ok()) return s;
  primary_ = cluster_->GetTable("primary");
  tr_table_ = cluster_->GetTable("tr_idx");
  idt_table_ = cluster_->GetTable("idt_idx");
  if (options_.region_retry.max_retries > 0) {
    // Region-task retries on the tables query scans fan out over; the meta
    // table is point-read only and stays strict.
    primary_->set_retry_policy(options_.region_retry);
    tr_table_->set_retry_policy(options_.region_retry);
    idt_table_->set_retry_policy(options_.region_retry);
  }
  if (event_log_ != nullptr) {
    // Split/merge lifecycle events land in the same /eventz ring as the
    // stores' flush/compaction events.
    primary_->set_event_log(event_log_.get());
    tr_table_->set_event_log(event_log_.get());
    idt_table_->set_event_log(event_log_.get());
  }
  if (options_.balancer.enabled) {
    balancer_ = std::make_unique<cluster::RegionBalancer>(
        std::vector<cluster::ClusterTable*>{primary_, tr_table_, idt_table_},
        options_.balancer);
    balancer_->Start();
  }

  tr_index_ = std::make_unique<index::TRIndex>(options_.tr);
  xzt_index_ = std::make_unique<index::XZTIndex>(options_.xzt);
  tshape_index_ = std::make_unique<index::TShapeIndex>(options_.tshape);
  xz2_index_ = std::make_unique<index::XZ2Index>(options_.xz2);
  xzstar_index_ =
      std::make_unique<index::XZStarIndex>(options_.tshape.max_resolution);
  index_cache_ = std::make_unique<IndexCache>(
      meta_table_, options_.index_cache_capacity, options_.tshape.shape_bits(),
      options_.kv.metrics);
  s = index_cache_->Open();
  if (!s.ok()) return s;

  planner_ = std::make_unique<QueryPlanner>(
      &options_, tr_index_.get(), xzt_index_.get(), tshape_index_.get(),
      xz2_index_.get(), xzstar_index_.get(),
      options_.use_index_cache ? index_cache_.get() : nullptr);
  executor_ = std::make_unique<Executor>(primary_, tr_table_, idt_table_,
                                         options_.kv.metrics);

  if (options_.kv.metrics != nullptr) {
    obs::MetricsRegistry* registry = options_.kv.metrics;
    auto query_histogram = [registry](const char* type) {
      return registry->GetHistogram(
          std::string("tman_core_query_micros{type=\"") + type + "\"}");
    };
    q_temporal_micros_ = query_histogram("temporal_range");
    q_spatial_micros_ = query_histogram("spatial_range");
    q_st_micros_ = query_histogram("st_range");
    q_idt_micros_ = query_histogram("id_temporal");
    q_sim_threshold_micros_ = query_histogram("similarity_threshold");
    q_sim_topk_micros_ = query_histogram("similarity_topk");
    q_count_micros_ = query_histogram("count");
    slow_queries_metric_ =
        registry->GetCounter("tman_core_slow_queries_total");
  }

  if (options_.telemetry_port >= 0) {
    if (options_.kv.metrics != nullptr) {
      options_.kv.metrics->EnableWindows(
          options_.telemetry_window_slots,
          options_.telemetry_report_interval_seconds);
    }
    telemetry_ = std::make_unique<obs::TelemetryServer>();
    telemetry_->set_metrics(options_.kv.metrics);
    if (event_log_ != nullptr) telemetry_->set_event_log(event_log_.get());
    if (trace_ring_ != nullptr) telemetry_->set_trace_ring(trace_ring_.get());
    telemetry_->set_status_source([this] { return StatusJson(); });
    telemetry_->set_health_source(
        [this](std::string* detail) { return Healthy(detail); });
    telemetry_->set_refresh_hook([this] { PublishMetrics(); });
    obs::TelemetryServer::ServerOptions server_opts;
    server_opts.port = options_.telemetry_port;
    server_opts.bind_any = options_.telemetry_bind_any;
    s = telemetry_->Start(server_opts);
    if (!s.ok()) return s;
    reporter_ = std::thread([this] { ReporterLoop(); });
  }
  return Status::OK();
}

std::vector<geo::TimedPoint> TMan::Normalize(
    const std::vector<geo::TimedPoint>& points) const {
  std::vector<geo::TimedPoint> norm;
  norm.reserve(points.size());
  for (const geo::TimedPoint& p : points) {
    const geo::Point np = options_.bounds.Normalize(geo::Point{p.x, p.y});
    norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
  }
  return norm;
}

uint64_t TMan::TemporalValue(int64_t ts, int64_t te) const {
  return options_.temporal == TemporalIndexKind::kTR
             ? tr_index_->Encode(ts, te)
             : xzt_index_->Encode(ts, te);
}

Status TMan::EncodeBatch(const std::vector<traj::Trajectory>& trajectories,
                         std::vector<uint64_t>* temporal_values,
                         std::vector<uint64_t>* spatial_values,
                         std::vector<index::TShapeEncoding>* encodings) const {
  for (const traj::Trajectory& t : trajectories) {
    if (t.points.empty()) {
      return Status::InvalidArgument("empty trajectory " + t.tid);
    }
  }
  const bool place_shapes = options_.spatial == SpatialIndexKind::kTShape &&
                            options_.use_index_cache;
  temporal_values->resize(trajectories.size());
  spatial_values->resize(trajectories.size());
  if (place_shapes) encodings->resize(trajectories.size());
  // The encoders are const and stateless, so trajectories encode on the
  // cluster pool.
  cluster_->pool()->ParallelFor(trajectories.size(), [&](size_t i) {
    const traj::Trajectory& t = trajectories[i];
    (*temporal_values)[i] = TemporalValue(t.start_time(), t.end_time());
    const std::vector<geo::TimedPoint> norm = Normalize(t.points);
    switch (options_.spatial) {
      case SpatialIndexKind::kXZ2:
        (*spatial_values)[i] = xz2_index_->Encode(geo::ComputeMBR(norm));
        break;
      case SpatialIndexKind::kXZStar:
        (*spatial_values)[i] = xzstar_index_->Encode(norm);
        break;
      case SpatialIndexKind::kTShape: {
        const index::TShapeEncoding enc = tshape_index_->Encode(norm);
        if (place_shapes) {
          (*encodings)[i] = enc;
        } else {
          (*spatial_values)[i] = enc.index_value;  // raw bitmap code (Eq. 3)
        }
        break;
      }
    }
  });
  return Status::OK();
}

std::string TMan::PrimaryKeyOf(const traj::Trajectory& t,
                               uint64_t temporal_value,
                               uint64_t spatial_value) const {
  const uint8_t shard = ShardOfTid(t.tid, options_.num_shards);
  switch (options_.primary) {
    case PrimaryIndexKind::kSpatial:
      return PrimaryKey(shard, spatial_value, t.tid);
    case PrimaryIndexKind::kTemporal:
      return PrimaryKey(shard, temporal_value, t.tid);
    case PrimaryIndexKind::kST:
      return PrimaryKeyST(shard, temporal_value, spatial_value, t.tid);
  }
  return PrimaryKey(shard, spatial_value, t.tid);
}

Status TMan::WriteRows(const std::vector<traj::Trajectory>& trajectories,
                       const std::vector<uint64_t>& temporal_values,
                       const std::vector<uint64_t>& spatial_values,
                       bool bulk) {
  std::vector<cluster::Row> primary_rows, tr_rows, idt_rows;
  auto write = [&]() -> Status {
    for (auto [table, rows] : {std::pair{primary_, &primary_rows},
                               std::pair{tr_table_, &tr_rows},
                               std::pair{idt_table_, &idt_rows}}) {
      Status s = bulk ? table->BulkLoad(*rows) : table->BatchPut(*rows);
      if (!s.ok()) return s;
      rows->clear();
    }
    return Status::OK();
  };

  // Records are encoded on the cluster pool before the batches are built.
  std::vector<std::string> values(trajectories.size());
  std::vector<char> encoded(trajectories.size());
  cluster_->pool()->ParallelFor(trajectories.size(), [&](size_t i) {
    encoded[i] =
        EncodeRecord(trajectories[i], options_.max_dp_features, &values[i]);
  });

  for (size_t i = 0; i < trajectories.size(); i++) {
    const traj::Trajectory& t = trajectories[i];
    if (!encoded[i]) {
      return Status::InvalidArgument("trajectory " + t.tid +
                                     " cannot be encoded");
    }
    const std::string pkey =
        PrimaryKeyOf(t, temporal_values[i], spatial_values[i]);
    primary_rows.push_back(cluster::Row{pkey, std::move(values[i])});

    // Secondary tables map index values to the primary key (§IV-B(2)).
    if (options_.primary != PrimaryIndexKind::kTemporal) {
      const uint8_t shard = ShardOfTid(t.tid, options_.num_shards);
      tr_rows.push_back(cluster::Row{
          SecondaryTRKey(shard, temporal_values[i], t.tid), pkey});
    }
    idt_rows.push_back(cluster::Row{
        IDTKey(ShardOfOid(t.oid, options_.num_shards), t.oid,
               temporal_values[i], t.tid),
        pkey});

    // A bulk load hands each table all of its rows at once: two files for
    // one region would overlap, and the region would refuse the second.
    if (!bulk && primary_rows.size() >= kWriteChunk) {
      Status s = write();
      if (!s.ok()) return s;
    }
  }
  if (bulk) {
    // Ingested rows are durable when the load returns. The codes they were
    // keyed with (and the config row) must be too, or a crash would keep
    // rows that no catalog entry leads a spatial query to.
    Status s = meta_table_->Flush();
    if (!s.ok()) return s;
  }
  return write();
}

Status TMan::BulkLoad(const std::vector<traj::Trajectory>& trajectories) {
  std::vector<uint64_t> temporal_values, spatial_values;
  std::vector<index::TShapeEncoding> encodings;
  Status s = EncodeBatch(trajectories, &temporal_values, &spatial_values,
                         &encodings);
  if (!s.ok()) return s;

  if (!encodings.empty()) {
    // One request per enlarged element, so each element's shape order is
    // optimized jointly. The shapes of elements that hold none yet are put
    // in optimized order (greedy/genetic TSP) on the cluster pool; the
    // index cache spreads them over the element's code space. Shapes new
    // to an element that holds some are placed one by one, as Insert
    // places them, so no code already written changes.
    std::unordered_map<uint64_t, std::vector<uint32_t>> element_shapes;
    for (const index::TShapeEncoding& enc : encodings) {
      auto& shapes = element_shapes[enc.quad_code];
      if (std::find(shapes.begin(), shapes.end(), enc.shape) == shapes.end()) {
        shapes.push_back(enc.shape);
      }
    }
    std::vector<ShapeRequest> requests;
    requests.reserve(element_shapes.size());
    std::vector<size_t> fresh;
    for (auto& [quad_code, shapes] : element_shapes) {
      if (index_cache_->GetElement(quad_code)->shapes.empty()) {
        fresh.push_back(requests.size());
      }
      requests.push_back(ShapeRequest{quad_code, std::move(shapes)});
    }
    cluster_->pool()->ParallelFor(fresh.size(), [&](size_t f) {
      std::vector<uint32_t>& shapes = requests[fresh[f]].bits;
      const std::vector<uint32_t> order = index::OptimizeShapeOrder(
          shapes, options_.encoding, options_.genetic);
      std::vector<uint32_t> ordered(order.size());
      for (size_t p = 0; p < order.size(); p++) ordered[p] = shapes[order[p]];
      shapes = std::move(ordered);
    });
    std::vector<std::vector<uint32_t>> codes;
    s = index_cache_->PlaceShapes(requests, &codes);
    if (!s.ok()) return s;
    std::unordered_map<uint64_t, std::unordered_map<uint32_t, uint32_t>>
        final_codes;
    for (size_t r = 0; r < requests.size(); r++) {
      auto& element_codes = final_codes[requests[r].quad_code];
      for (size_t j = 0; j < codes[r].size(); j++) {
        element_codes[requests[r].bits[j]] = codes[r][j];
      }
    }
    for (size_t i = 0; i < trajectories.size(); i++) {
      const index::TShapeEncoding& enc = encodings[i];
      spatial_values[i] = tshape_index_->IndexValue(
          enc.quad_code, final_codes[enc.quad_code][enc.shape]);
    }
  }

  return WriteRows(trajectories, temporal_values, spatial_values,
                   /*bulk=*/true);
}

Status TMan::Insert(const std::vector<traj::Trajectory>& trajectories) {
  std::vector<uint64_t> temporal_values, spatial_values;
  std::vector<index::TShapeEncoding> encodings;
  Status s = EncodeBatch(trajectories, &temporal_values, &spatial_values,
                         &encodings);
  if (!s.ok()) return s;

  if (!encodings.empty()) {
    // Update path (§IV-C): each shape its element lacks takes a free code
    // next to its most similar shapes. One request per unseen shape, in
    // trajectory order, all placed with one catalog write.
    std::vector<uint32_t> final_codes(encodings.size());
    std::vector<ShapeRequest> requests;
    std::map<std::pair<uint64_t, uint32_t>, size_t> request_of;
    for (size_t i = 0; i < encodings.size(); i++) {
      const index::TShapeEncoding& enc = encodings[i];
      final_codes[i] =
          index_cache_->GetElement(enc.quad_code)->FinalCodeOf(enc.shape);
      if (final_codes[i] == UINT32_MAX &&
          request_of.emplace(std::make_pair(enc.quad_code, enc.shape),
                             requests.size())
              .second) {
        requests.push_back(ShapeRequest{enc.quad_code, {enc.shape}});
      }
    }
    std::vector<std::vector<uint32_t>> codes;
    s = index_cache_->PlaceShapes(requests, &codes);
    if (!s.ok()) return s;
    for (size_t i = 0; i < encodings.size(); i++) {
      const index::TShapeEncoding& enc = encodings[i];
      if (final_codes[i] == UINT32_MAX) {
        final_codes[i] = codes[request_of[{enc.quad_code, enc.shape}]][0];
      }
      spatial_values[i] = tshape_index_->IndexValue(enc.quad_code,
                                                    final_codes[i]);
    }
  }

  return WriteRows(trajectories, temporal_values, spatial_values,
                   /*bulk=*/false);
}

Status TMan::DeleteTrajectory(const std::string& oid, const std::string& tid) {
  // The IDT table is the locator: all of an object's rows live in one
  // shard, keyed oid \0 tr tid -> primary key.
  const uint8_t shard = ShardOfOid(oid, options_.num_shards);
  cluster::KeyRange range;
  range.start.push_back(static_cast<char>(shard));
  range.start.append(oid);
  range.start.push_back('\0');
  range.end.push_back(static_cast<char>(shard));
  range.end.append(oid);
  range.end.push_back('\x01');

  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink collect(&rows);
  Status s = idt_table_->MultiScan({range}, nullptr, 0, &collect, nullptr);
  if (!s.ok()) return s;

  bool found = false;
  for (const cluster::Row& row : rows) {
    // IDT key layout: shard | oid | \0 | BE64(tr) | tid.
    const size_t prefix = 1 + oid.size() + 1 + 8;
    if (row.key.size() <= prefix) continue;
    if (Slice(row.key.data() + prefix, row.key.size() - prefix) !=
        Slice(tid)) {
      continue;
    }
    found = true;
    // Delete the primary row, the TR secondary row, and the IDT row.
    s = primary_->Delete(row.value);
    if (!s.ok()) return s;
    if (options_.primary != PrimaryIndexKind::kTemporal) {
      const uint64_t tr_value =
          DecodeBigEndian64(row.key.data() + 1 + oid.size() + 1);
      s = tr_table_->Delete(
          SecondaryTRKey(ShardOfTid(tid, options_.num_shards), tr_value, tid));
      if (!s.ok()) return s;
    }
    s = idt_table_->Delete(row.key);
    if (!s.ok()) return s;
  }
  return found ? Status::OK()
               : Status::NotFound("no trajectory " + tid + " for " + oid);
}

Status TMan::Flush() {
  Status s = meta_table_->Flush();
  if (s.ok()) s = primary_->Flush();
  if (s.ok()) s = tr_table_->Flush();
  if (s.ok()) s = idt_table_->Flush();
  return s;
}

Status TMan::CompactAll() {
  Status s = primary_->CompactAll();
  if (s.ok()) s = tr_table_->CompactAll();
  if (s.ok()) s = idt_table_->CompactAll();
  return s;
}

StorageStats TMan::GetStorageStats() {
  StorageStats total;
  for (cluster::ClusterTable* table :
       {primary_, tr_table_, idt_table_, meta_table_}) {
    if (table == nullptr) continue;
    kv::DB::Stats s = table->GetStorageStats();
    total.flush_count += s.flush_count;
    total.compaction_count += s.compaction_count;
    total.compaction_bytes_read += s.compaction_bytes_read;
    total.compaction_bytes_written += s.compaction_bytes_written;
    total.stall_count += s.stall_count;
    total.stall_micros += s.stall_micros;
    total.wal_syncs += s.wal_syncs;
    for (uint64_t b : s.bytes_per_level) total.sstable_bytes += b;
    total.memtable_bytes += s.memtable_bytes + s.imm_memtable_bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Queries: thin plan -> execute -> stats entry points. Window generation and
// RBO/CBO branching live in QueryPlanner; row flow lives in Executor.

void TMan::MergePlanningStats(const QueryPlan& plan, const Stopwatch& planning,
                              QueryStats* stats) {
  if (stats == nullptr) return;
  stats->plan = plan.name;
  stats->planning_ms += planning.ElapsedMillis();
  stats->index_values += plan.index_values;
  stats->elements_visited += plan.elements_visited;
  stats->shapes_checked += plan.shapes_checked;
}

Status TMan::TemporalRangeQuery(int64_t ts, int64_t te,
                                std::vector<traj::Trajectory>* out,
                                QueryStats* stats, const QueryOptions& qopts) {
  Stopwatch total;
  auto root = MaybeTraceRoot(qopts, stats, "TemporalRangeQuery");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanTemporalRange(ts, te, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);

  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  DecodeTrajectoriesSink sink(out);
  s = executor_->Execute(plan, &sink, stats, exec_span);
  if (s.ok()) s = sink.status();
  if (!s.ok()) return s;
  if (exec_span != nullptr) {
    exec_span->End();
    exec_span->Annotate("rows_decoded", static_cast<double>(sink.accepted()));
  }
  if (stats != nullptr) {
    stats->results += sink.accepted();
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_temporal_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

Status TMan::SpatialRangeQuery(const geo::MBR& rect,
                               std::vector<traj::Trajectory>* out,
                               QueryStats* stats, const QueryOptions& qopts) {
  Stopwatch total;
  auto root = MaybeTraceRoot(qopts, stats, "SpatialRangeQuery");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanSpatialRange(rect, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);

  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  DecodeTrajectoriesSink sink(out);
  s = executor_->Execute(plan, &sink, stats, exec_span);
  if (s.ok()) s = sink.status();
  if (!s.ok()) return s;
  if (exec_span != nullptr) {
    exec_span->End();
    exec_span->Annotate("rows_decoded", static_cast<double>(sink.accepted()));
  }
  if (stats != nullptr) {
    stats->results += sink.accepted();
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_spatial_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

Status TMan::SpatioTemporalRangeQuery(const geo::MBR& rect, int64_t ts,
                                      int64_t te,
                                      std::vector<traj::Trajectory>* out,
                                      QueryStats* stats,
                                      const QueryOptions& qopts) {
  Stopwatch total;
  auto root = MaybeTraceRoot(qopts, stats, "SpatioTemporalRangeQuery");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanSpatioTemporalRange(rect, ts, te, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);

  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  DecodeTrajectoriesSink sink(out);
  s = executor_->Execute(plan, &sink, stats, exec_span);
  if (s.ok()) s = sink.status();
  if (!s.ok()) return s;
  if (exec_span != nullptr) {
    exec_span->End();
    exec_span->Annotate("rows_decoded", static_cast<double>(sink.accepted()));
  }
  if (stats != nullptr) {
    stats->results += sink.accepted();
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_st_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

Status TMan::IDTemporalQuery(const std::string& oid, int64_t ts, int64_t te,
                             std::vector<traj::Trajectory>* out,
                             QueryStats* stats, const QueryOptions& qopts) {
  Stopwatch total;
  auto root = MaybeTraceRoot(qopts, stats, "IDTemporalQuery");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanIDTemporal(oid, ts, te, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);

  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  DecodeTrajectoriesSink sink(out);
  s = executor_->Execute(plan, &sink, stats, exec_span);
  if (s.ok()) s = sink.status();
  if (!s.ok()) return s;
  if (exec_span != nullptr) {
    exec_span->End();
    exec_span->Annotate("rows_decoded", static_cast<double>(sink.accepted()));
  }
  if (stats != nullptr) {
    stats->results += sink.accepted();
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_idt_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

Status TMan::ThresholdSimilarityQuery(const traj::Trajectory& query,
                                      geo::SimilarityMeasure measure,
                                      double threshold,
                                      std::vector<traj::Trajectory>* out,
                                      QueryStats* stats,
                                      const QueryOptions& qopts) {
  Stopwatch total;
  auto root = MaybeTraceRoot(qopts, stats, "ThresholdSimilarityQuery");
  geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, options_.max_dp_features);

  // Global pruning via the spatial index plus the pushed-down similarity
  // filter (MBR + DP-feature lower bounds evaluated in the storage layer,
  // §V-G): only rows that could be within the threshold stream to the
  // exact verification sink.
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanSimilarityCandidates(
      query.ComputeMBR(), threshold,
      std::make_unique<SimilarityFilter>(query_features, threshold),
      "similarity:threshold", &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);

  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  ThresholdVerifySink sink(&query, measure, threshold, out, stats);
  s = executor_->Execute(plan, &sink, stats, exec_span);
  if (s.ok()) s = sink.status();
  if (!s.ok()) return s;
  if (exec_span != nullptr) {
    exec_span->End();
    exec_span->Annotate("verified", static_cast<double>(sink.accepted()));
    exec_span->Annotate(
        "exact_distance_computations",
        stats != nullptr
            ? static_cast<double>(stats->exact_distance_computations)
            : 0.0);
  }
  if (stats != nullptr) {
    stats->results += sink.accepted();
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_sim_threshold_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

Status TMan::TopKSimilarityQuery(const traj::Trajectory& query,
                                 geo::SimilarityMeasure measure, size_t k,
                                 std::vector<traj::Trajectory>* out,
                                 QueryStats* stats,
                                 const QueryOptions& qopts) {
  Stopwatch total;
  if (options_.primary != PrimaryIndexKind::kSpatial) {
    return Status::NotSupported(
        "similarity queries require a spatial primary index");
  }
  if (k == 0) return Status::OK();

  auto root = MaybeTraceRoot(qopts, stats, "TopKSimilarityQuery");
  const geo::MBR qmbr = query.ComputeMBR();
  TopKSink sink(&query, measure, k,
                geo::ExtractDPFeatures(query.points, options_.max_dp_features),
                stats);

  double radius =
      std::max(options_.bounds.width(), options_.bounds.height()) / 512.0;
  const double max_radius =
      2.0 * std::max(options_.bounds.width(), options_.bounds.height());
  double previous_radius = 0;
  std::vector<cluster::KeyRange> previous_windows;
  int round = 0;

  while (true) {
    obs::TraceSpan* round_span =
        root != nullptr ? root->AddChild("round " + std::to_string(round))
                        : nullptr;
    obs::TraceSpan* plan_span =
        round_span != nullptr ? round_span->AddChild("planning") : nullptr;
    Stopwatch planning;
    QueryPlan plan;
    // The filter skips the rows the previous round delivered, which it did
    // to completion (a round the cutoff stops is always the last), so each
    // row reaches the sink at most once.
    Status s = planner_->PlanSimilarityCandidates(
        qmbr, radius,
        std::make_unique<MBRDistanceFilter>(qmbr, radius, previous_radius,
                                            std::move(previous_windows)),
        "similarity:topk", &plan);
    if (!s.ok()) return s;
    plan.allow_degraded = qopts.allow_degraded;
    FinishPlanningSpan(plan_span, plan);
    MergePlanningStats(plan, planning, stats);

    // Rows the sink has not seen yet all lie beyond the previous radius
    // (smaller windows were scanned to completion, and rows rejected by
    // this round's MBR filter are farther than `radius`), so once the
    // k-th distance drops to the previous radius the sink terminates the
    // scan mid-round instead of draining every window.
    sink.set_cutoff(previous_radius);
    obs::TraceSpan* exec_span =
        round_span != nullptr ? round_span->AddChild("execute") : nullptr;
    s = executor_->Execute(plan, &sink, stats, exec_span);
    if (s.ok()) s = sink.status();
    if (exec_span != nullptr) exec_span->End();
    if (round_span != nullptr) {
      round_span->End();
      round_span->Annotate("radius", radius);
      round_span->Annotate("kth_bound", std::isinf(sink.KthBound())
                                            ? -1.0
                                            : sink.KthBound());
    }
    if (!s.ok()) return s;

    // Stop once the k-th best distance is certainly inside the searched
    // radius (no unexplored trajectory can beat it).
    if (sink.KthBound() <= radius) break;
    if (radius >= max_radius) break;
    previous_radius = radius;
    previous_windows = std::move(plan.windows);
    radius *= 2;
    round++;
  }

  std::vector<traj::Trajectory> results = sink.TakeResults();
  if (stats != nullptr) {
    stats->results += results.size();
    stats->execution_ms += total.ElapsedMillis();
  }
  out->reserve(out->size() + results.size());
  std::move(results.begin(), results.end(), std::back_inserter(*out));
  RecordQueryLatency(q_sim_topk_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Count queries: the row query's plan runs with its filter chain wrapped in
// a CountingFilter, so matches are counted inside the storage layer and no
// rows are shipped back.

Status TMan::ExecuteCount(QueryPlan plan, const std::string& count_plan_name,
                          uint64_t* count, QueryStats* stats,
                          obs::TraceSpan* span) {
  const kv::ScanFilter* inner = plan.filter.get();
  auto counting = std::make_unique<CountingFilter>(inner, std::move(plan.filter));
  CountingFilter* counter = counting.get();
  plan.filter = std::move(counting);

  NullSink sink;
  Status s = executor_->Execute(plan, &sink, stats, span);
  *count = counter->count();
  if (span != nullptr) {
    span->End();
    span->Annotate("count", static_cast<double>(*count));
  }
  if (stats != nullptr) stats->plan = count_plan_name;
  return s;
}

Status TMan::TemporalRangeCount(int64_t ts, int64_t te, uint64_t* count,
                                QueryStats* stats, const QueryOptions& qopts) {
  Stopwatch total;
  *count = 0;
  auto root = MaybeTraceRoot(qopts, stats, "TemporalRangeCount");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanTemporalRange(ts, te, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);
  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  // A secondary plan fetches each primary row and applies the counting
  // filter to it, so no row is decoded.
  s = ExecuteCount(std::move(plan), "count:temporal", count, stats, exec_span);
  if (stats != nullptr) {
    stats->results = *count;
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_count_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return s;
}

Status TMan::SpatialRangeCount(const geo::MBR& rect, uint64_t* count,
                               QueryStats* stats, const QueryOptions& qopts) {
  Stopwatch total;
  *count = 0;
  auto root = MaybeTraceRoot(qopts, stats, "SpatialRangeCount");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanSpatialRange(rect, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);
  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  s = ExecuteCount(std::move(plan), "count:spatial", count, stats, exec_span);
  if (stats != nullptr) {
    stats->results = *count;
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_count_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return s;
}

Status TMan::SpatioTemporalRangeCount(const geo::MBR& rect, int64_t ts,
                                      int64_t te, uint64_t* count,
                                      QueryStats* stats,
                                      const QueryOptions& qopts) {
  Stopwatch total;
  *count = 0;
  auto root = MaybeTraceRoot(qopts, stats, "SpatioTemporalRangeCount");
  obs::TraceSpan* plan_span =
      root != nullptr ? root->AddChild("planning") : nullptr;
  Stopwatch planning;
  QueryPlan plan;
  Status s = planner_->PlanSpatioTemporalRange(rect, ts, te, &plan);
  if (!s.ok()) return s;
  plan.allow_degraded = qopts.allow_degraded;
  FinishPlanningSpan(plan_span, plan);
  MergePlanningStats(plan, planning, stats);
  obs::TraceSpan* exec_span =
      root != nullptr ? root->AddChild("execute") : nullptr;
  s = ExecuteCount(std::move(plan), "count:spatio-temporal", count, stats,
                   exec_span);
  if (stats != nullptr) {
    stats->results = *count;
    stats->execution_ms += total.ElapsedMillis();
  }
  RecordQueryLatency(q_count_micros_, total);
  FinishTrace(qopts, std::move(root), stats, total);
  return s;
}

uint64_t TMan::StorageBytes() {
  return primary_->TotalBytes() + tr_table_->TotalBytes() +
         idt_table_->TotalBytes() + meta_table_->TotalBytes();
}

void TMan::PublishMetrics() {
  obs::MetricsRegistry* registry = options_.kv.metrics;
  if (registry == nullptr) return;
  // Serialized so the reporter thread and scrape-triggered refreshes never
  // interleave half-updated gauge sets.
  std::lock_guard<std::mutex> lock(publish_mu_);
  const StorageStats s = GetStorageStats();
  registry->GetGauge("tman_storage_sstable_bytes")
      ->Set(static_cast<double>(s.sstable_bytes));
  registry->GetGauge("tman_storage_memtable_bytes")
      ->Set(static_cast<double>(s.memtable_bytes));
}


namespace {

// Hex rendering of a routing-boundary rowkey for /statusz. An empty string
// stays empty: as a start it means -infinity, as an end +infinity.
std::string HexKey(const std::string& key) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

}  // namespace

std::string TMan::StatusJson() {
  std::string out = "{";
  out += "\"server\":\"tman\"";
  out += ",\"build\":{\"compiler\":\"" + obs::JsonEscape(__VERSION__) +
         "\"}";
  out += ",\"uptime_seconds\":" +
         std::to_string(uptime_.ElapsedMillis() / 1000.0);

  const StorageStats agg = GetStorageStats();
  out += ",\"storage\":{";
  out += "\"sstable_bytes\":" + std::to_string(agg.sstable_bytes);
  out += ",\"memtable_bytes\":" + std::to_string(agg.memtable_bytes);
  out += ",\"flush_count\":" + std::to_string(agg.flush_count);
  out += ",\"compaction_count\":" + std::to_string(agg.compaction_count);
  out += ",\"stall_count\":" + std::to_string(agg.stall_count);
  out += ",\"stall_micros\":" + std::to_string(agg.stall_micros);
  out += "}";

  out += ",\"catalog\":{";
  out += "\"occupied_elements\":" +
         std::to_string(index_cache_->occupied_elements());
  out += ",\"occupancy_bytes\":" +
         std::to_string(index_cache_->occupancy_bytes());
  out += ",\"shapes\":" + std::to_string(index_cache_->registered_shapes());
  const IndexCache::OpenStats& loaded = index_cache_->open_stats();
  out += ",\"loaded_elements\":" + std::to_string(loaded.elements);
  out += ",\"loaded_shapes\":" + std::to_string(loaded.shapes);
  out += ",\"load_ms\":" + std::to_string(loaded.ms);
  out += "}";

  if (trace_ring_ != nullptr) {
    out += ",\"slow_queries\":{";
    out += "\"threshold_micros\":" +
           std::to_string(options_.slow_query_micros);
    out += ",\"captured\":" + std::to_string(trace_ring_->total_captured());
    out += "}";
  }
  if (event_log_ != nullptr) {
    out += ",\"events\":{";
    out += "\"appended\":" + std::to_string(event_log_->total_appended());
    out += ",\"capacity\":" + std::to_string(event_log_->capacity());
    out += "}";
  }

  if (balancer_ != nullptr) {
    out += ",\"balancer\":{";
    out += "\"ticks\":" + std::to_string(balancer_->ticks());
    out += ",\"splits\":" + std::to_string(balancer_->splits());
    out += ",\"merges\":" + std::to_string(balancer_->merges());
    out += "}";
  }

  out += ",\"tables\":[";
  bool first_table = true;
  for (cluster::ClusterTable* table :
       {primary_, tr_table_, idt_table_, meta_table_}) {
    if (table == nullptr) continue;
    if (!first_table) out += ",";
    first_table = false;
    out += "{\"name\":\"" + obs::JsonEscape(table->name()) + "\"";
    out += ",\"routing_generation\":" +
           std::to_string(table->routing_generation());
    out += ",\"region_splits\":" + std::to_string(table->splits_performed());
    out += ",\"region_merges\":" + std::to_string(table->merges_performed());
    out += ",\"regions\":[";
    bool first_region = true;
    for (const cluster::ClusterTable::RegionStats& rs :
         table->GetPerRegionStats()) {
      if (!first_region) out += ",";
      first_region = false;
      out += "{\"shard\":" + std::to_string(rs.shard);
      out += ",\"key_range\":{\"start\":\"" + HexKey(rs.range.start) +
             "\",\"end\":\"" + HexKey(rs.range.end) + "\"}";
      out += ",\"writes_total\":" + std::to_string(rs.writes_total);
      out += ",\"rows_scanned_total\":" +
             std::to_string(rs.rows_scanned_total);
      out += ",\"db\":" +
             kv::RenderDbStatsJson(rs.db_name, rs.background_error, rs.stats);
      out += "}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

bool TMan::Healthy(std::string* detail) {
  for (cluster::ClusterTable* table :
       {primary_, tr_table_, idt_table_, meta_table_}) {
    if (table == nullptr) continue;
    for (const cluster::ClusterTable::RegionStats& rs :
         table->GetPerRegionStats()) {
      if (!rs.background_error.ok()) {
        if (detail != nullptr) {
          *detail = table->name() + "/shard" + std::to_string(rs.shard) +
                    ": " + rs.background_error.ToString();
        }
        return false;
      }
    }
  }
  return true;
}

void TMan::ReporterLoop() {
  const auto interval = std::chrono::seconds(
      std::max(1, options_.telemetry_report_interval_seconds));
  std::unique_lock<std::mutex> lock(reporter_mu_);
  while (!reporter_stop_) {
    if (reporter_cv_.wait_for(lock, interval,
                              [this] { return reporter_stop_; })) {
      break;
    }
    lock.unlock();
    PublishMetrics();
    if (options_.kv.metrics != nullptr) {
      options_.kv.metrics->RotateWindow();
    }
    lock.lock();
  }
}

}  // namespace tman::core
