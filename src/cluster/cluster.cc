#include "cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "kvstore/sst_file_writer.h"
#include "kvstore/write_batch.h"

namespace tman::cluster {

// ---------------------------------------------------------------------------
// Key ranges

bool RangeContains(const KeyRange& range, const Slice& key) {
  if (key.compare(Slice(range.start)) < 0) return false;
  return range.end.empty() || key.compare(Slice(range.end)) < 0;
}

bool RangesIntersect(const KeyRange& a, const KeyRange& b) {
  const bool a_starts_before_b_ends =
      b.end.empty() || Slice(a.start).compare(Slice(b.end)) < 0;
  const bool b_starts_before_a_ends =
      a.end.empty() || Slice(b.start).compare(Slice(a.end)) < 0;
  return a_starts_before_b_ends && b_starts_before_a_ends;
}

namespace {

// Rows per write batch when a region takes a bulk load's rows as writes.
constexpr size_t kBulkBatchRows = 4096;

// Intersection of a query range with a routing entry's range. Only called
// for intersecting pairs, so the result is non-empty.
KeyRange ClampRange(const KeyRange& query, const KeyRange& owned) {
  KeyRange out;
  out.start = Slice(query.start).compare(Slice(owned.start)) >= 0
                  ? query.start
                  : owned.start;
  if (owned.end.empty()) {
    out.end = query.end;
  } else if (query.end.empty()) {
    out.end = owned.end;
  } else {
    out.end =
        Slice(query.end).compare(Slice(owned.end)) <= 0 ? query.end : owned.end;
  }
  return out;
}

std::string HexEncode(const std::string& s) {
  if (s.empty()) return "-";
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (unsigned char c : s) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* out) {
  out->clear();
  if (hex == "-") return true;
  if (hex.size() % 2 != 0) return false;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

std::string FormatRange(const KeyRange& range) {
  return "[" + HexEncode(range.start) + ", " +
         (range.end.empty() ? "inf" : HexEncode(range.end)) + ")";
}

Status ReadFileToString(kv::Env* env, const std::string& path,
                        std::string* out) {
  std::unique_ptr<kv::SequentialFile> file;
  Status s = env->NewSequentialFile(path, &file);
  if (!s.ok()) return s;
  out->clear();
  char buf[4096];
  while (true) {
    Slice chunk;
    s = file->Read(sizeof(buf), &chunk, buf);
    if (!s.ok()) return s;
    if (chunk.empty()) break;
    out->append(chunk.data(), chunk.size());
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Region

Region::~Region() {
  const bool retired = retired_.load(std::memory_order_relaxed);
  db_.reset();  // close the store before touching its directory
  if (retired) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best effort
  }
}

void Region::NoteWrites(uint64_t n) {
  writes_total_.fetch_add(n, std::memory_order_relaxed);
  if (writes_counter_ != nullptr) writes_counter_->Inc(n);
}

void Region::NoteRowsScanned(uint64_t n) {
  rows_scanned_total_.fetch_add(n, std::memory_order_relaxed);
  if (rows_scanned_counter_ != nullptr) rows_scanned_counter_->Inc(n);
}

Status Region::MultiScan(const std::vector<kv::ScanWindow>& windows,
                         const kv::ScanFilter* filter, size_t limit,
                         kv::RowSink* sink, kv::ScanStats* stats,
                         kv::MultiScanPerf* perf) {
  return db_->MultiScan(kv::ReadOptions(), windows, filter, limit, sink,
                        stats, perf);
}

// ---------------------------------------------------------------------------
// RoutingTable

const RoutingEntry& RoutingTable::Find(const Slice& key) const {
  // Last entry whose start is <= key. The first entry starts at "", so the
  // upper bound is never begin().
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const Slice& k, const RoutingEntry& e) {
        return k.compare(Slice(e.range.start)) < 0;
      });
  return *(it - 1);
}

std::vector<const RoutingEntry*> RoutingTable::Intersecting(
    const KeyRange& range) const {
  // Entries are sorted and disjoint, so the intersecting set is one
  // contiguous run.
  std::vector<const RoutingEntry*> out;
  for (const RoutingEntry& e : entries_) {
    if (RangesIntersect(e.range, range)) {
      out.push_back(&e);
    } else if (!out.empty()) {
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ClusterTable: open / topology persistence

ClusterTable::ClusterTable(std::string name, std::string dir,
                           kv::Options base_options, ThreadPool* pool,
                           obs::MetricsRegistry* metrics)
    : name_(std::move(name)),
      dir_(std::move(dir)),
      base_options_(std::move(base_options)),
      pool_(pool),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    scans_ = metrics_->GetCounter("tman_cluster_scans_total");
    region_retries_ =
        metrics_->GetCounter("tman_cluster_region_retries_total");
    region_failures_ =
        metrics_->GetCounter("tman_cluster_region_failures_total");
    rows_streamed_ = metrics_->GetCounter("tman_cluster_rows_streamed_total");
    region_splits_ =
        metrics_->GetCounter("tman_cluster_region_splits_total");
    region_merges_ =
        metrics_->GetCounter("tman_cluster_region_merges_total");
    fanout_regions_ =
        metrics_->GetHistogram("tman_cluster_scan_fanout_regions");
    scan_micros_ = metrics_->GetHistogram("tman_cluster_scan_micros");
    wait_micros_ = metrics_->GetHistogram("tman_cluster_scan_wait_micros");
  }
}

ClusterTable::~ClusterTable() = default;

Status ClusterTable::Open(std::string name, std::string dir,
                          kv::Options base_options, int initial_shards,
                          ThreadPool* pool, obs::MetricsRegistry* metrics,
                          std::unique_ptr<ClusterTable>* out) {
  if (initial_shards < 1 || initial_shards > 256) {
    return Status::InvalidArgument(
        "initial_shards must be in [1, 256] (one-byte initial ranges)");
  }
  std::unique_ptr<ClusterTable> table(
      new ClusterTable(std::move(name), std::move(dir),
                       std::move(base_options), pool, metrics));
  Status s = table->LoadOrInit(initial_shards);
  if (!s.ok()) return s;
  *out = std::move(table);
  return Status::OK();
}

kv::Env* ClusterTable::env() const {
  return base_options_.env != nullptr ? base_options_.env : kv::Env::Default();
}

Status ClusterTable::NewRegion(int id, const std::string& dir, KeyRange range,
                               std::shared_ptr<Region>* out) {
  auto owned = std::make_shared<OwnedRange>(range);
  auto filter = std::make_unique<RegionOwnershipFilter>(
      owned, base_options_.compaction_filter);
  kv::Options opt = base_options_;
  opt.compaction_filter = filter.get();
  const std::string path = dir_ + "/" + dir;
  std::unique_ptr<kv::DB> db;
  Status s = kv::DB::Open(opt, path, &db);
  if (!s.ok()) return s;
  auto region = std::make_shared<Region>(id, path, std::move(owned),
                                         std::move(filter), std::move(db));
  if (metrics_ != nullptr) {
    const std::string labels = "{table=\"" + name_ + "\",shard=\"" +
                               std::to_string(id) + "\"}";
    region->AttachCounters(
        metrics_->GetCounter("tman_cluster_region_writes_total" + labels),
        metrics_->GetCounter("tman_cluster_region_rows_scanned_total" +
                             labels));
  }
  *out = std::move(region);
  return Status::OK();
}

namespace {
constexpr const char* kRoutingHeader = "tman-routing v1";
}  // namespace

Status ClusterTable::PersistRouting(const RoutingTable& table) {
  std::string content = std::string(kRoutingHeader) + "\n";
  content += "generation " + std::to_string(table.generation()) + "\n";
  content += "next-region-id " + std::to_string(next_region_id_) + "\n";
  for (const RoutingEntry& e : table.entries()) {
    const std::string& dir = e.region->dir();
    const size_t slash = dir.rfind('/');
    const std::string subdir =
        slash == std::string::npos ? dir : dir.substr(slash + 1);
    content += "region " + std::to_string(e.region->id()) + " " + subdir +
               " " + HexEncode(e.range.start) + " " + HexEncode(e.range.end) +
               "\n";
  }
  const std::string manifest = dir_ + "/ROUTING";
  const std::string tmp = dir_ + "/ROUTING.tmp";
  std::unique_ptr<kv::WritableFile> file;
  Status s = env()->NewWritableFile(tmp, &file);
  if (s.ok()) s = file->Append(content);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (s.ok()) s = env()->RenameFile(tmp, manifest);
  if (!s.ok()) env()->RemoveFile(tmp);  // best effort
  return s;
}

Status ClusterTable::LoadOrInit(int initial_shards) {
  std::filesystem::create_directories(dir_);
  const std::string manifest = dir_ + "/ROUTING";

  struct ManifestRegion {
    int id = 0;
    std::string subdir;
    KeyRange range;
  };
  std::vector<ManifestRegion> lines;
  uint64_t generation = 0;
  bool have_manifest = env()->FileExists(manifest);

  if (have_manifest) {
    std::string content;
    Status s = ReadFileToString(env(), manifest, &content);
    if (!s.ok()) return s;
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line) || line != kRoutingHeader) {
      return Status::Corruption("bad ROUTING manifest header: " + manifest);
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream tok(line);
      std::string kind;
      tok >> kind;
      if (kind == "generation") {
        tok >> generation;
      } else if (kind == "next-region-id") {
        tok >> next_region_id_;
      } else if (kind == "region") {
        ManifestRegion r;
        std::string hex_start, hex_end;
        tok >> r.id >> r.subdir >> hex_start >> hex_end;
        if (tok.fail() || r.subdir.empty() ||
            !HexDecode(hex_start, &r.range.start) ||
            !HexDecode(hex_end, &r.range.end)) {
          return Status::Corruption("bad ROUTING region line: " + line);
        }
        lines.push_back(std::move(r));
      } else {
        return Status::Corruption("bad ROUTING line: " + line);
      }
    }
    if (lines.empty()) {
      return Status::Corruption("ROUTING manifest lists no regions");
    }
  } else {
    // Fresh table (or one created before dynamic routing): `initial_shards`
    // regions with one-byte ranges, reproducing the historical shard-byte
    // placement for rowkeys whose leading byte is in [0, initial_shards).
    generation = 1;
    next_region_id_ = initial_shards;
    for (int i = 0; i < initial_shards; i++) {
      ManifestRegion r;
      r.id = i;
      r.subdir = "shard" + std::to_string(i);
      if (i > 0) r.range.start = std::string(1, static_cast<char>(i));
      if (i < initial_shards - 1) {
        r.range.end = std::string(1, static_cast<char>(i + 1));
      }
      lines.push_back(std::move(r));
    }
  }

  std::sort(lines.begin(), lines.end(),
            [](const ManifestRegion& a, const ManifestRegion& b) {
              return a.range.start < b.range.start;
            });
  // The ranges must partition the whole keyspace.
  for (size_t i = 0; i < lines.size(); i++) {
    const bool first_ok = i > 0 || lines[i].range.start.empty();
    const bool chain_ok =
        i + 1 >= lines.size() || (!lines[i].range.end.empty() &&
                                  lines[i].range.end ==
                                      lines[i + 1].range.start);
    const bool last_ok = i + 1 < lines.size() || lines[i].range.end.empty();
    if (!first_ok || !chain_ok || !last_ok) {
      return Status::Corruption(
          "ROUTING ranges do not partition the keyspace");
    }
    if (lines[i].id >= next_region_id_) next_region_id_ = lines[i].id + 1;
  }

  std::vector<RoutingEntry> entries;
  entries.reserve(lines.size());
  std::set<std::string> referenced;
  for (const ManifestRegion& r : lines) {
    referenced.insert(r.subdir);
    std::shared_ptr<Region> region;
    Status s = NewRegion(r.id, r.subdir, r.range, &region);
    if (!s.ok()) return s;
    entries.push_back(RoutingEntry{r.range, std::move(region)});
  }
  StoreRouting(
      std::make_shared<const RoutingTable>(generation, std::move(entries)));

  if (!have_manifest) {
    Status s = PersistRouting(*Routing());
    if (!s.ok()) return s;
  }

  // Sweep leftovers a torn split/merge may have left behind: region
  // directories the manifest does not reference and stray temp files are
  // unreachable (routing never pointed at them at a commit point).
  std::vector<std::string> children;
  if (env()->GetChildren(dir_, &children).ok()) {
    for (const std::string& child : children) {
      if (child == "." || child == ".." || child == "ROUTING") continue;
      const bool is_tmp = child.size() > 4 &&
                          child.compare(child.size() - 4, 4, ".tmp") == 0;
      const bool is_region_dir = child.rfind("shard", 0) == 0 ||
                                 child.rfind("region-", 0) == 0;
      if (is_tmp || (is_region_dir && referenced.count(child) == 0)) {
        std::error_code ec;
        std::filesystem::remove_all(dir_ + "/" + child, ec);  // best effort
      }
    }
  }
  return Status::OK();
}

int ClusterTable::num_shards() const {
  return static_cast<int>(Routing()->entries().size());
}

uint64_t ClusterTable::routing_generation() const {
  return Routing()->generation();
}

// ---------------------------------------------------------------------------
// ClusterTable: write path

Status ClusterTable::RoutedWrite(const Slice& key, const Slice& value,
                                 bool is_delete) {
  std::shared_lock<std::shared_mutex> gate(write_gate_);
  std::shared_ptr<const RoutingTable> routing = Routing();
  const RoutingEntry& entry = routing->Find(key);
  kv::DB* db = entry.region->db();
  const kv::WriteOptions wo;
  Status s;
  std::shared_ptr<MigrationTee> tee = migration_;
  if (tee != nullptr && RangeContains(tee->range, key)) {
    // The tee lock is held across the store write AND the tee append so the
    // replay batch preserves commit order for same-key writes.
    std::lock_guard<std::mutex> lock(tee->mu);
    s = is_delete ? db->Delete(wo, key) : db->Put(wo, key, value);
    if (s.ok()) {
      if (is_delete) {
        tee->deltas.Delete(key);
      } else {
        tee->deltas.Put(key, value);
      }
      tee->rows++;
    }
  } else {
    s = is_delete ? db->Delete(wo, key) : db->Put(wo, key, value);
  }
  if (s.ok()) entry.region->NoteWrites(1);
  return s;
}

Status ClusterTable::Put(const Slice& key, const Slice& value) {
  return RoutedWrite(key, value, false);
}

Status ClusterTable::Delete(const Slice& key) {
  return RoutedWrite(key, Slice(), true);
}

Status ClusterTable::Get(const Slice& key, std::string* value) {
  std::shared_ptr<const RoutingTable> routing = Routing();
  return routing->Find(key).region->db()->Get(kv::ReadOptions(), key, value);
}

Status ClusterTable::BatchPut(const std::vector<Row>& rows) {
  return BatchPut(rows, kv::WriteOptions());
}

Status ClusterTable::BatchPut(const std::vector<Row>& rows,
                              const kv::WriteOptions& wo) {
  std::shared_lock<std::shared_mutex> gate(write_gate_);
  std::shared_ptr<const RoutingTable> routing = Routing();
  const std::vector<RoutingEntry>& entries = routing->entries();
  std::shared_ptr<MigrationTee> tee = migration_;
  std::vector<kv::WriteBatch> batches(entries.size());
  std::vector<kv::WriteBatch> teed(entries.size());  // subset bound for the tee
  for (const Row& row : rows) {
    const RoutingEntry& e = routing->Find(row.key);
    const size_t idx = static_cast<size_t>(&e - entries.data());
    batches[idx].Put(row.key, row.value);
    if (tee != nullptr && RangeContains(tee->range, row.key)) {
      teed[idx].Put(row.key, row.value);
    }
  }
  std::vector<std::future<Status>> futures;
  for (size_t i = 0; i < entries.size(); i++) {
    if (batches[i].Count() == 0) continue;
    futures.push_back(pool_->Submit([&, i] {
      Region* region = entries[i].region.get();
      Status s = WriteTeed(tee.get(), teed[i], [&] {
        return region->db()->Write(wo, &batches[i]);
      });
      if (s.ok()) region->NoteWrites(batches[i].Count());
      return s;
    }));
  }
  Status result;
  for (auto& f : futures) {
    Status s = f.get();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status ClusterTable::WriteTeed(MigrationTee* tee, const kv::WriteBatch& teed,
                               const std::function<Status()>& write) {
  if (tee == nullptr || teed.Count() == 0) return write();
  std::lock_guard<std::mutex> lock(tee->mu);
  Status s = write();
  if (s.ok()) {
    tee->deltas.Append(teed);
    tee->rows += teed.Count();
  }
  return s;
}

kv::WriteBatch ClusterTable::TeedRows(const MigrationTee* tee,
                                      std::span<const Row* const> rows) {
  kv::WriteBatch teed;
  if (tee == nullptr) return teed;
  for (const Row* r : rows) {
    if (RangeContains(tee->range, r->key)) teed.Put(r->key, r->value);
  }
  return teed;
}

Status ClusterTable::IngestGroup(MigrationTee* tee, Region* region,
                                 std::span<const Row* const> rows) {
  kv::DB* db = region->db();
  // Built inside the region directory under a .tmp name: invisible to the
  // store's GC while live, swept by Recover after a crash. The file is
  // built before the tee lock is taken; only the ingest and the tee append
  // need its order.
  const std::string path =
      db->name() + "/bulk-" +
      std::to_string(bulk_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";
  kv::SstFileWriter writer(db->options());
  Status s = writer.Open(path);
  for (size_t j = 0; s.ok() && j < rows.size(); j++) {
    s = writer.Put(rows[j]->key, rows[j]->value);
  }
  if (s.ok()) s = writer.Finish(nullptr);
  if (s.ok()) {
    s = WriteTeed(tee, TeedRows(tee, rows), [&] {
      kv::DB::IngestOptions io;
      io.move_file = true;
      return db->IngestExternalFile(io, path);
    });
  }
  if (s.ok()) {
    region->NoteWrites(rows.size());
  } else {
    env()->RemoveFile(path);  // best effort
  }
  return s;
}

Status ClusterTable::WriteGroup(MigrationTee* tee, Region* region,
                                std::span<const Row* const> rows) {
  Status s;
  for (size_t begin = 0; s.ok() && begin < rows.size();
       begin += kBulkBatchRows) {
    const std::span<const Row* const> piece =
        rows.subspan(begin, std::min(kBulkBatchRows, rows.size() - begin));
    kv::WriteBatch batch;
    for (const Row* r : piece) batch.Put(r->key, r->value);
    s = WriteTeed(tee, TeedRows(tee, piece), [&] {
      return region->db()->Write(kv::WriteOptions(), &batch);
    });
    if (s.ok()) region->NoteWrites(piece.size());
  }
  return s;
}

Status ClusterTable::BulkLoad(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  std::shared_lock<std::shared_mutex> gate(write_gate_);
  std::shared_ptr<const RoutingTable> routing = Routing();
  const std::vector<RoutingEntry>& entries = routing->entries();
  std::shared_ptr<MigrationTee> tee = migration_;
  // An ingested file sits at the last level, which no compaction rewrites
  // unless a file above overlaps it: a table filter that could expire rows
  // (retention) would never see them, so such a table takes no files.
  const kv::CompactionFilter* filter = base_options_.compaction_filter;
  const bool ingest = filter == nullptr || !filter->CouldDropAnything();
  std::vector<std::vector<const Row*>> by_region(entries.size());
  for (const Row& row : rows) {
    const RoutingEntry& e = routing->Find(row.key);
    by_region[static_cast<size_t>(&e - entries.data())].push_back(&row);
  }
  std::vector<std::future<Status>> futures;
  for (size_t i = 0; i < entries.size(); i++) {
    if (by_region[i].empty()) continue;
    futures.push_back(pool_->Submit([&, i] {
      std::vector<const Row*>& group = by_region[i];
      // A stable sort keeps a repeated key's rows in call order; the last
      // one stays, as it would in a BatchPut of the same rows.
      std::stable_sort(group.begin(), group.end(),
                       [](const Row* a, const Row* b) {
                         return a->key < b->key;
                       });
      size_t kept = 0;
      for (size_t j = 0; j < group.size(); j++) {
        if (j + 1 < group.size() && group[j + 1]->key == group[j]->key) {
          continue;
        }
        group[kept++] = group[j];
      }
      group.resize(kept);
      Region* region = entries[i].region.get();
      Status s;
      if (ingest) s = IngestGroup(tee.get(), region, group);
      // Sequence-0 rows from a file can only go under the store's rows: a
      // store that holds rows in the group's key range refuses the file.
      if (!ingest || s.IsOverlap()) s = WriteGroup(tee.get(), region, group);
      return s;
    }));
  }
  Status result;
  for (auto& f : futures) {
    Status s = f.get();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

// ---------------------------------------------------------------------------
// ClusterTable: scan path

namespace {

class CollectRowsFork : public kv::RowSink {
 public:
  bool Accept(const Slice& key, const Slice& value) override {
    rows.push_back(Row{key.ToString(), value.ToString()});
    return true;
  }

  std::vector<Row> rows;
};

// One region task's delivery into its fork. Every task checks the scan's
// shared stop flag before its next row, and a fork declining a row sets it.
class StoppableSink : public kv::RowSink {
 public:
  StoppableSink(kv::RowSink* fork, std::atomic<bool>* stopped)
      : fork_(fork), stopped_(stopped) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (stopped_->load(std::memory_order_relaxed)) return false;
    if (fork_->Accept(key, value)) return true;
    stopped_->store(true, std::memory_order_relaxed);
    return false;
  }

 private:
  kv::RowSink* fork_;
  std::atomic<bool>* stopped_;
};

// Tracks delivery progress of one region task so a retry can resume after
// the last delivered key instead of streaming rows twice.
class ProgressSink : public kv::RowSink {
 public:
  explicit ProgressSink(kv::RowSink* inner) : inner_(inner) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (!inner_->Accept(key, value)) return false;
    rows_++;
    last_key_.assign(key.data(), key.size());
    return true;
  }

  uint64_t rows() const { return rows_; }
  const std::string& last_key() const { return last_key_; }

 private:
  kv::RowSink* inner_;
  uint64_t rows_ = 0;
  std::string last_key_;
};

void BackoffSleep(const RetryPolicy& retry, int attempt) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(retry.BackoffMicros(attempt)));
}

// Whether a mid-stream resume can be expressed by trimming windows: needs
// sorted, non-overlapping windows (the planner's contract). Unsorted
// batches only retry from scratch when nothing was delivered yet.
bool WindowsSortedDisjoint(const std::vector<kv::ScanWindow>& windows) {
  for (size_t i = 1; i < windows.size(); i++) {
    const Slice& prev_end = windows[i - 1].end;
    if (prev_end.empty()) return false;  // previous extends to +inf
    if (prev_end.compare(windows[i].start) > 0) return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<kv::RowSink> CollectRowsSink::Fork() {
  return std::make_unique<CollectRowsFork>();
}

void CollectRowsSink::Join(kv::RowSink* fork) {
  std::vector<Row>& rows = static_cast<CollectRowsFork*>(fork)->rows;
  out_->insert(out_->end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
}

Status ClusterTable::MultiScan(const std::vector<KeyRange>& ranges,
                               const kv::ScanFilter* filter, size_t limit,
                               ScanSink* sink, kv::ScanStats* stats,
                               std::vector<RegionScanStat>* breakdown,
                               kv::MultiScanPerf* perf,
                               ScanOutcome* outcome) {
  // Group windows by routing entry: one task (and one iterator stack) per
  // region. Clamping each window to its entry's routing range keeps fan-out
  // results disjoint even while a source region still holds rows that
  // migrated out in a split (lazy reclamation): those rows sit outside its
  // routing range, so no clamped window can reach them twice. The clamped
  // KeyRanges own the strings the ScanWindow slices borrow, and both
  // vectors are fully built before the parallel phase starts. One routing
  // snapshot serves the whole scan: concurrent splits/merges do not change
  // which region serves a window mid-flight, and the entries' shared_ptrs
  // keep even a retired region's store alive.
  std::shared_ptr<const RoutingTable> routing = Routing();
  const std::vector<RoutingEntry>& entries = routing->entries();
  std::vector<std::vector<KeyRange>> clamped(entries.size());
  for (const KeyRange& range : ranges) {
    for (const RoutingEntry* e : routing->Intersecting(range)) {
      const size_t idx = static_cast<size_t>(e - entries.data());
      clamped[idx].push_back(ClampRange(range, e->range));
    }
  }
  std::vector<std::vector<kv::ScanWindow>> grouped(entries.size());
  for (size_t i = 0; i < entries.size(); i++) {
    grouped[i].reserve(clamped[i].size());
    for (const KeyRange& r : clamped[i]) {
      grouped[i].push_back(kv::ScanWindow{Slice(r.start), Slice(r.end)});
    }
  }

  struct Task {
    Region* region;
    const std::vector<kv::ScanWindow>* windows;
    std::unique_ptr<kv::RowSink> fork;
    kv::ScanStats stats;
    kv::MultiScanPerf perf;
    Status status;
    int retries = 0;
    uint64_t wait_micros = 0;  // scan start -> task start
    uint64_t scan_micros = 0;  // inside the region batch
  };
  std::vector<Task> tasks;
  for (size_t i = 0; i < entries.size(); i++) {
    if (grouped[i].empty()) continue;
    tasks.push_back(Task{entries[i].region.get(), &grouped[i], sink->Fork(),
                         {}, {}, Status::OK(), 0, 0, 0});
  }

  Stopwatch total;  // read only when metrics are on
  const bool timed = scans_ != nullptr || breakdown != nullptr;
  const RetryPolicy retry = retry_;
  std::atomic<bool> stopped{false};
  pool_->ParallelFor(tasks.size(), [&](size_t i) {
    Task& task = tasks[i];
    if (timed) task.wait_micros = total.ElapsedMicros();
    Stopwatch run;
    StoppableSink deliver(task.fork.get(), &stopped);
    if (retry.max_retries == 0) {
      task.status = task.region->MultiScan(*task.windows, filter, limit,
                                           &deliver, &task.stats, &task.perf);
    } else {
      ProgressSink progress(&deliver);
      task.status = task.region->MultiScan(*task.windows, filter, limit,
                                           &progress, &task.stats, &task.perf);
      const bool resumable = WindowsSortedDisjoint(*task.windows);
      std::string resume_start;
      std::vector<kv::ScanWindow> resumed;
      while (!task.status.ok() &&
             retry.ShouldRetry(task.status, task.retries) &&
             (limit == 0 || progress.rows() == 0) &&
             (resumable || progress.rows() == 0)) {
        BackoffSleep(retry, task.retries);
        task.retries++;
        const std::vector<kv::ScanWindow>* windows = task.windows;
        if (progress.rows() > 0) {
          // Sorted windows: every window ending at or before the last
          // delivered key's successor is fully streamed; the one
          // containing it resumes just past it.
          resume_start = progress.last_key() + '\0';  // key successor
          const Slice resume(resume_start);
          resumed.clear();
          for (const kv::ScanWindow& w : *task.windows) {
            if (!w.end.empty() && w.end.compare(resume) <= 0) continue;
            kv::ScanWindow trimmed = w;
            if (trimmed.start.compare(resume) < 0) trimmed.start = resume;
            resumed.push_back(trimmed);
          }
          windows = &resumed;
        }
        task.status = task.region->MultiScan(*windows, filter, limit,
                                             &progress, &task.stats,
                                             &task.perf);
      }
    }
    sink->Finish(task.fork.get());
    if (timed) task.scan_micros = run.ElapsedMicros();
  });

  Status result;
  uint64_t matched = 0;
  uint64_t failed = 0;
  uint64_t retries_total = 0;
  for (Task& task : tasks) {
    retries_total += task.retries;
    if (!task.status.ok()) {
      failed++;
      if (result.ok()) result = task.status;
      if (outcome != nullptr) {
        outcome->region_errors.emplace_back(task.region->id(), task.status);
      }
    }
    if (stats != nullptr) *stats += task.stats;
    if (perf != nullptr) *perf += task.perf;
    matched += task.stats.matched;
    if (breakdown != nullptr) {
      breakdown->push_back(RegionScanStat{
          task.region->id(), task.stats.scanned, task.stats.matched,
          static_cast<double>(task.wait_micros) / 1000.0,
          static_cast<double>(task.scan_micros) / 1000.0});
    }
    if (wait_micros_ != nullptr) wait_micros_->Record(task.wait_micros);
    if (task.stats.scanned > 0) {
      task.region->NoteRowsScanned(task.stats.scanned);
    }
    sink->Join(task.fork.get());
  }
  if (outcome != nullptr) {
    outcome->regions_attempted += tasks.size();
    outcome->regions_failed += failed;
    outcome->retries += retries_total;
  }
  if (region_failures_ != nullptr && failed > 0) region_failures_->Inc(failed);
  if (region_retries_ != nullptr && retries_total > 0) {
    region_retries_->Inc(retries_total);
  }
  if (scans_ != nullptr) {
    scans_->Inc();
    rows_streamed_->Inc(matched);
    fanout_regions_->Record(tasks.size());
    scan_micros_->RecordMicros(total.ElapsedMicros());
  }
  return result;
}

Status ClusterTable::ScanWithoutPushdown(const std::vector<KeyRange>& ranges,
                                         const kv::ScanFilter* filter,
                                         std::vector<Row>* out,
                                         kv::ScanStats* stats) {
  // Ship every row in the windows to the "client", then filter there.
  std::vector<Row> shipped;
  CollectRowsSink collect(&shipped);
  kv::ScanStats shipping_stats;
  Status s = MultiScan(ranges, nullptr, 0, &collect, &shipping_stats);
  if (!s.ok()) return s;
  if (stats != nullptr) {
    stats->scanned += shipping_stats.scanned;
  }
  for (Row& row : shipped) {
    if (filter == nullptr || filter->Matches(row.key, row.value)) {
      if (stats != nullptr) stats->matched++;
      out->push_back(std::move(row));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ClusterTable: splits and merges

namespace {

// Streams scan rows straight into an SstFileWriter. DB::Scan delivers user
// keys in strictly ascending order with duplicates collapsed, exactly the
// writer's contract.
class SstCopySink : public kv::RowSink {
 public:
  explicit SstCopySink(kv::SstFileWriter* writer) : writer_(writer) {}

  bool Accept(const Slice& key, const Slice& value) override {
    status_ = writer_->Put(key, value);
    return status_.ok();
  }

  const Status& status() const { return status_; }

 private:
  kv::SstFileWriter* writer_;
  Status status_;
};

// Streams scan rows into a target DB as chunked WriteBatches. Used by merge:
// the copied rows get fresh sequence numbers, so a row also arriving via the
// tee replay (which runs strictly later) correctly shadows the copy.
class BatchCopySink : public kv::RowSink {
 public:
  BatchCopySink(kv::DB* target, size_t chunk_rows)
      : target_(target), chunk_rows_(chunk_rows) {}

  bool Accept(const Slice& key, const Slice& value) override {
    batch_.Put(key, value);
    rows_++;
    if (batch_.Count() >= chunk_rows_) {
      status_ = target_->Write(kv::WriteOptions(), &batch_);
      batch_.Clear();
      return status_.ok();
    }
    return true;
  }

  Status Finish() {
    if (status_.ok() && batch_.Count() > 0) {
      status_ = target_->Write(kv::WriteOptions(), &batch_);
      batch_.Clear();
    }
    return status_;
  }

  uint64_t rows() const { return rows_; }

 private:
  kv::DB* target_;
  size_t chunk_rows_;
  kv::WriteBatch batch_;
  Status status_;
  uint64_t rows_ = 0;
};

}  // namespace

void ClusterTable::EmitTopologyEvent(
    const char* type,
    std::vector<std::pair<std::string, std::string>> fields) {
  if (event_log_ == nullptr) return;
  obs::Event e;
  e.type = type;
  e.source = "cluster/" + name_;
  e.fields = std::move(fields);
  event_log_->Append(std::move(e));
}

Status ClusterTable::SplitRegion(int region_id) {
  // Estimate the byte-weighted median outside admin_mu_ (flush can wait on
  // background work); SplitRegionAt revalidates the key against the then-
  // current range, so a racing topology change just fails the attempt.
  std::shared_ptr<const RoutingTable> routing = Routing();
  std::shared_ptr<Region> region;
  KeyRange range;
  for (const RoutingEntry& e : routing->entries()) {
    if (e.region->id() == region_id) {
      region = e.region;
      range = e.range;
      break;
    }
  }
  if (region == nullptr) {
    return Status::NotFound("no region " + std::to_string(region_id));
  }
  Status s = region->db()->Flush();  // median sampling reads only SSTables
  if (!s.ok()) return s;
  std::string median;
  s = region->db()->GetApproximateMedianKey(range.start, range.end, &median);
  if (!s.ok()) return s;
  return SplitRegionAt(region_id, median);
}

Status ClusterTable::SplitRegionAt(int region_id,
                                   const std::string& split_key) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::shared_ptr<const RoutingTable> routing = Routing();
  const std::vector<RoutingEntry>& entries = routing->entries();
  size_t idx = entries.size();
  for (size_t i = 0; i < entries.size(); i++) {
    if (entries[i].region->id() == region_id) {
      idx = i;
      break;
    }
  }
  if (idx == entries.size()) {
    return Status::NotFound("no region " + std::to_string(region_id));
  }
  const KeyRange cur = entries[idx].range;
  const bool inside =
      Slice(split_key).compare(Slice(cur.start)) > 0 &&
      (cur.end.empty() || Slice(split_key).compare(Slice(cur.end)) < 0);
  if (!inside) {
    return Status::InvalidArgument("split key not strictly inside " +
                                   FormatRange(cur));
  }
  std::shared_ptr<Region> source = entries[idx].region;

  const int new_id = next_region_id_++;
  std::shared_ptr<Region> moved;
  Status s = NewRegion(new_id, "region-" + std::to_string(new_id),
                       KeyRange{split_key, cur.end}, &moved);
  if (!s.ok()) {
    next_region_id_--;
    return s;
  }

  // Install the tee BEFORE taking the copy snapshot: every write to the
  // moving range from here on lands in the source store (still the routed
  // owner) AND in the replay batch. A write that also made the snapshot is
  // replayed on top of its sequence-0 ingested copy, which it shadows.
  auto tee = std::make_shared<MigrationTee>();
  tee->range = KeyRange{split_key, cur.end};
  tee->target = moved->db();
  {
    std::unique_lock<std::shared_mutex> gate(write_gate_);
    migration_ = tee;
  }

  auto abort = [&](Status why) {
    {
      std::unique_lock<std::shared_mutex> gate(write_gate_);
      migration_.reset();
    }
    // The source kept every row (tee writes were dual-applied), so dropping
    // the half-built region loses nothing.
    moved->Retire();
    moved.reset();
    return why;
  };

  // Copy the upper half: snapshot scan -> external SSTable -> ingest. The
  // scan covers memtable rows, runs off a pinned snapshot and never blocks
  // writers; the ingest lands as sequence 0 in a store whose only other
  // contents are teed writes (fresh sequences), which win by LSM ordering.
  const std::string sst_path = moved->dir() + "/migrate.tmp";
  kv::SstFileWriter writer(moved->db()->options());
  uint64_t moved_rows = 0;
  uint64_t moved_bytes = 0;
  s = writer.Open(sst_path);
  if (s.ok()) {
    SstCopySink copy(&writer);
    kv::ScanStats scan_stats;
    s = source->db()->Scan(kv::ReadOptions(), split_key, cur.end, nullptr, 0,
                           &copy, &scan_stats);
    if (s.ok()) s = copy.status();
  }
  if (s.ok() && writer.num_entries() > 0) {
    kv::ExternalSstFileInfo info;
    s = writer.Finish(&info);
    if (s.ok()) {
      kv::DB::IngestOptions io;
      io.move_file = true;
      s = moved->db()->IngestExternalFile(io, sst_path);
    }
    if (s.ok()) {
      moved_rows = info.num_entries;
      moved_bytes = info.file_size;
    }
  } else if (s.ok()) {
    env()->RemoveFile(sst_path);  // empty upper half: nothing to ingest
  }
  if (!s.ok()) return abort(s);

  uint64_t teed_rows = 0;
  uint64_t generation = 0;
  {
    // Commit: writers are excluded, so the tee is complete. Order matters —
    // replay the tee, persist the new routing (the crash-recovery commit
    // point), publish it in memory, and only THEN shrink the source's owned
    // range: shrinking earlier would let a concurrent compaction drop rows
    // the routing still directs at the source.
    std::unique_lock<std::shared_mutex> gate(write_gate_);
    teed_rows = tee->rows;
    if (tee->rows > 0) {
      s = moved->db()->Write(kv::WriteOptions(), &tee->deltas);
      if (!s.ok()) {
        migration_.reset();
        gate.unlock();
        moved->Retire();
        return s;
      }
    }
    std::vector<RoutingEntry> next = entries;
    next[idx].range.end = split_key;
    next.insert(next.begin() + idx + 1,
                RoutingEntry{KeyRange{split_key, cur.end}, moved});
    generation = routing->generation() + 1;
    auto table = std::make_shared<const RoutingTable>(generation,
                                                      std::move(next));
    s = PersistRouting(*table);
    if (!s.ok()) {
      migration_.reset();
      gate.unlock();
      moved->Retire();
      return s;
    }
    StoreRouting(table);
    source->set_owned_range(KeyRange{cur.start, split_key});
    migration_.reset();
  }

  splits_performed_.fetch_add(1, std::memory_order_relaxed);
  if (region_splits_ != nullptr) region_splits_->Inc();
  EmitTopologyEvent(
      "region_split",
      {{"region", std::to_string(region_id)},
       {"new_region", std::to_string(new_id)},
       {"split_key", HexEncode(split_key)},
       {"left_range", FormatRange(KeyRange{cur.start, split_key})},
       {"right_range", FormatRange(KeyRange{split_key, cur.end})},
       {"migrated_rows", std::to_string(moved_rows + teed_rows)},
       {"migrated_bytes", std::to_string(moved_bytes)},
       {"generation", std::to_string(generation)}});
  return Status::OK();
}

Status ClusterTable::MergeRegions(int region_id_a, int region_id_b) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::shared_ptr<const RoutingTable> routing = Routing();
  const std::vector<RoutingEntry>& entries = routing->entries();
  size_t ia = entries.size();
  size_t ib = entries.size();
  for (size_t i = 0; i < entries.size(); i++) {
    if (entries[i].region->id() == region_id_a) ia = i;
    if (entries[i].region->id() == region_id_b) ib = i;
  }
  if (ia == entries.size() || ib == entries.size()) {
    return Status::NotFound("no such region pair");
  }
  const size_t left_idx = std::min(ia, ib);
  const size_t right_idx = std::max(ia, ib);
  if (right_idx != left_idx + 1) {
    return Status::InvalidArgument("regions are not adjacent");
  }
  std::shared_ptr<Region> left = entries[left_idx].region;
  std::shared_ptr<Region> right = entries[right_idx].region;
  const KeyRange left_range = entries[left_idx].range;
  const KeyRange right_range = entries[right_idx].range;
  const KeyRange merged{left_range.start, right_range.end};

  // Purge any rows the left store still holds outside its owned range
  // (leftovers of an earlier split) BEFORE expanding that range: once it
  // covers the right side, the ownership filter could no longer tell a
  // stale leftover in [b, c) from a freshly copied row.
  Status s = left->db()->Flush();
  if (s.ok()) s = left->db()->CompactAll();
  if (!s.ok()) return s;

  // Expand ownership first so no compaction drops the incoming rows, then
  // install the tee so no concurrent write to the right range is missed.
  left->set_owned_range(merged);
  auto tee = std::make_shared<MigrationTee>();
  tee->range = right_range;
  tee->target = left->db();
  {
    std::unique_lock<std::shared_mutex> gate(write_gate_);
    migration_ = tee;
  }

  auto abort = [&](Status why) {
    {
      std::unique_lock<std::shared_mutex> gate(write_gate_);
      migration_.reset();
    }
    // Rows already copied into the left store are now outside its owned
    // range again and get lazily reclaimed; the right region stays routed
    // and authoritative, so nothing is lost or duplicated.
    left->set_owned_range(left_range);
    return why;
  };

  // Copy the right region's rows into the left store in chunks. Fresh
  // sequence numbers mean the strictly-later tee replay shadows correctly.
  BatchCopySink copy(left->db(), 512);
  kv::ScanStats scan_stats;
  s = right->db()->Scan(kv::ReadOptions(), right_range.start, right_range.end,
                        nullptr, 0, &copy, &scan_stats);
  if (s.ok()) s = copy.Finish();
  if (!s.ok()) return abort(s);

  uint64_t teed_rows = 0;
  uint64_t generation = 0;
  {
    std::unique_lock<std::shared_mutex> gate(write_gate_);
    teed_rows = tee->rows;
    if (tee->rows > 0) {
      s = left->db()->Write(kv::WriteOptions(), &tee->deltas);
      if (!s.ok()) {
        migration_.reset();
        gate.unlock();
        left->set_owned_range(left_range);
        return s;
      }
    }
    std::vector<RoutingEntry> next = entries;
    next[left_idx].range.end = right_range.end;
    next.erase(next.begin() + right_idx);
    generation = routing->generation() + 1;
    auto table = std::make_shared<const RoutingTable>(generation,
                                                      std::move(next));
    s = PersistRouting(*table);
    if (!s.ok()) {
      migration_.reset();
      gate.unlock();
      left->set_owned_range(left_range);
      return s;
    }
    StoreRouting(table);
    right->Retire();  // directory deleted when the last scan snapshot drops
    migration_.reset();
  }

  merges_performed_.fetch_add(1, std::memory_order_relaxed);
  if (region_merges_ != nullptr) region_merges_->Inc();
  EmitTopologyEvent(
      "region_merge",
      {{"left_region", std::to_string(left->id())},
       {"right_region", std::to_string(right->id())},
       {"left_range", FormatRange(left_range)},
       {"right_range", FormatRange(right_range)},
       {"merged_range", FormatRange(merged)},
       {"migrated_rows", std::to_string(copy.rows() + teed_rows)},
       {"generation", std::to_string(generation)}});
  return Status::OK();
}

Status ClusterTable::CompactRegion(int region_id) {
  std::shared_ptr<const RoutingTable> routing = Routing();
  for (const RoutingEntry& e : routing->entries()) {
    if (e.region->id() == region_id) {
      Status s = e.region->db()->Flush();
      if (!s.ok()) return s;
      return e.region->db()->CompactAll();
    }
  }
  return Status::NotFound("no region " + std::to_string(region_id));
}

// ---------------------------------------------------------------------------
// ClusterTable: maintenance / stats

namespace {

// Rebuilds `s` with the same code and an annotated message (Status carries
// no public re-message constructor).
Status AnnotateRegionError(const Status& s, size_t succeeded, size_t total) {
  const std::string msg = s.message() + " (" + std::to_string(succeeded) +
                          " of " + std::to_string(total) +
                          " regions succeeded)";
  switch (s.code()) {
    case Status::Code::kNotFound:
      return Status::NotFound(msg);
    case Status::Code::kCorruption:
      return Status::Corruption(msg);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case Status::Code::kNotSupported:
      return Status::NotSupported(msg);
    case Status::Code::kBusy:
      return Status::Busy(msg);
    case Status::Code::kIOError:
    default:
      return Status::IOError(msg);
  }
}

}  // namespace

Status ClusterTable::Flush() {
  // Attempt every region: one failing store must not leave the others with
  // unflushed memtables.
  std::shared_ptr<const RoutingTable> routing = Routing();
  size_t succeeded = 0;
  Status first;
  for (const RoutingEntry& e : routing->entries()) {
    Status s = e.region->db()->Flush();
    if (s.ok()) {
      succeeded++;
    } else if (first.ok()) {
      first = s;
    }
  }
  if (first.ok()) return first;
  return AnnotateRegionError(first, succeeded, routing->entries().size());
}

Status ClusterTable::CompactAll() {
  std::shared_ptr<const RoutingTable> routing = Routing();
  size_t succeeded = 0;
  Status first;
  for (const RoutingEntry& e : routing->entries()) {
    Status s = e.region->db()->CompactAll();
    if (s.ok()) {
      succeeded++;
    } else if (first.ok()) {
      first = s;
    }
  }
  if (first.ok()) return first;
  return AnnotateRegionError(first, succeeded, routing->entries().size());
}

kv::DB::Stats ClusterTable::GetStorageStats() {
  std::shared_ptr<const RoutingTable> routing = Routing();
  kv::DB::Stats total;
  for (const RoutingEntry& e : routing->entries()) {
    kv::DB::Stats s = e.region->db()->GetStats();
    if (total.files_per_level.size() < s.files_per_level.size()) {
      total.files_per_level.resize(s.files_per_level.size(), 0);
      total.bytes_per_level.resize(s.bytes_per_level.size(), 0);
    }
    for (size_t l = 0; l < s.files_per_level.size(); l++) {
      total.files_per_level[l] += s.files_per_level[l];
      total.bytes_per_level[l] += s.bytes_per_level[l];
    }
    total.memtable_bytes += s.memtable_bytes;
    total.imm_memtable_bytes += s.imm_memtable_bytes;
    total.block_cache_hits += s.block_cache_hits;
    total.block_cache_misses += s.block_cache_misses;
    total.flush_count += s.flush_count;
    total.compaction_count += s.compaction_count;
    total.compaction_bytes_read += s.compaction_bytes_read;
    total.compaction_bytes_written += s.compaction_bytes_written;
    total.stall_count += s.stall_count;
    total.stall_micros += s.stall_micros;
    total.wal_syncs += s.wal_syncs;
    total.compaction_filter_dropped += s.compaction_filter_dropped;
    total.compaction_filter_tombstoned += s.compaction_filter_tombstoned;
    total.files_ingested += s.files_ingested;
    total.rows_ingested += s.rows_ingested;
  }
  return total;
}

std::vector<ClusterTable::RegionStats> ClusterTable::GetPerRegionStats() {
  std::shared_ptr<const RoutingTable> routing = Routing();
  std::vector<RegionStats> out;
  out.reserve(routing->entries().size());
  for (const RoutingEntry& e : routing->entries()) {
    RegionStats rs;
    rs.shard = e.region->id();
    rs.range = e.range;
    rs.db_name = e.region->db()->name();
    rs.writes_total = e.region->writes_total();
    rs.rows_scanned_total = e.region->rows_scanned_total();
    rs.background_error = e.region->db()->background_error();
    rs.stats = e.region->db()->GetStats();
    for (uint64_t b : rs.stats.bytes_per_level) rs.sstable_bytes += b;
    out.push_back(std::move(rs));
  }
  return out;
}

uint64_t ClusterTable::TotalBytes() {
  std::shared_ptr<const RoutingTable> routing = Routing();
  uint64_t total = 0;
  for (const RoutingEntry& e : routing->entries()) {
    kv::DB::Stats stats = e.region->db()->GetStats();
    for (uint64_t b : stats.bytes_per_level) total += b;
    total += stats.memtable_bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(std::string base_dir, int num_servers, kv::Options options)
    : base_dir_(std::move(base_dir)),
      num_servers_(num_servers),
      options_(options),
      pool_(static_cast<size_t>(num_servers)),
      bg_pool_(static_cast<size_t>(num_servers)) {
  // All region stores share the cluster's maintenance pool unless the
  // caller wired a specific one.
  if (options_.background_pool == nullptr) {
    options_.background_pool = &bg_pool_;
  }
  std::filesystem::create_directories(base_dir_);
}

Status Cluster::CreateTable(const std::string& name, int num_shards,
                            const kv::Options* options_override) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table exists: " + name);
  }
  kv::Options opt = options_override != nullptr ? *options_override : options_;
  if (opt.background_pool == nullptr) {
    opt.background_pool = &bg_pool_;  // same wiring as the cluster defaults
  }
  std::unique_ptr<ClusterTable> table;
  Status s = ClusterTable::Open(name, base_dir_ + "/" + name, opt, num_shards,
                                &pool_, opt.metrics, &table);
  if (!s.ok()) return s;
  tables_[name] = std::move(table);
  return Status::OK();
}

Status Cluster::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  tables_.erase(it);
  std::filesystem::remove_all(base_dir_ + "/" + name);
  return Status::OK();
}

ClusterTable* Cluster::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Cluster::TableNames() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace tman::cluster
