#include "kvstore/version.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "kvstore/filename.h"
#include "kvstore/log.h"

namespace tman::kv {

namespace {

// Newest L0 file first (larger file number = newer data).
bool NewestFirst(const FileMetaPtr& a, const FileMetaPtr& b) {
  return a->number > b->number;
}

bool BySmallestKey(const FileMetaPtr& a, const FileMetaPtr& b) {
  InternalKeyComparator icmp;
  return icmp.Compare(a->smallest.Encode(), b->smallest.Encode()) < 0;
}

struct GetState {
  Slice user_key;
  bool found = false;
  bool deleted = false;
  std::string* value = nullptr;
};

void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  GetState* s = reinterpret_cast<GetState*>(arg);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) return;
  if (parsed.user_key != s->user_key) return;
  s->found = true;
  if (parsed.type == kTypeDeletion) {
    s->deleted = true;
  } else {
    s->value->assign(v.data(), v.size());
  }
}

}  // namespace

namespace {

// Bloom-filter accounting for one candidate file: returns false when the
// filter proves the key absent (the table read can be skipped). Only used
// on the instrumented path; the fast path leaves the check inside
// Table::InternalGet.
bool FilterAdmits(const FileMetaPtr& f, const Slice& user_key, int level,
                  GetPerf* perf) {
  if (f->table->has_filter()) {
    perf->bloom_checks++;
    if (!f->table->KeyMayMatch(user_key)) {
      perf->bloom_useful++;
      return false;
    }
  }
  const int slot = level < GetPerf::kMaxLevels ? level : GetPerf::kMaxLevels - 1;
  perf->reads_per_level[slot]++;
  return true;
}

}  // namespace

Status Version::Get(const ReadOptions& ro, const LookupKey& key,
                    std::string* value, GetPerf* perf) {
  const Slice ikey = key.internal_key();
  const Slice user_key = key.user_key();

  GetState state;
  state.user_key = user_key;
  state.value = value;

  // L0: files may overlap; check newest first.
  for (const FileMetaPtr& f : files_[0]) {
    if (user_key.compare(f->smallest.user_key()) < 0 ||
        user_key.compare(f->largest.user_key()) > 0) {
      continue;
    }
    if (perf != nullptr && !FilterAdmits(f, user_key, 0, perf)) continue;
    Status s = f->table->InternalGet(ro, ikey, &state, SaveValue);
    if (!s.ok()) return s;
    if (state.found) {
      return state.deleted ? Status::NotFound("deleted") : Status::OK();
    }
  }

  // Deeper levels: files are disjoint and sorted by smallest key.
  for (int level = 1; level < num_levels(); level++) {
    const auto& files = files_[level];
    if (files.empty()) continue;
    // Binary search for the first file whose largest >= user_key.
    int lo = 0, hi = static_cast<int>(files.size()) - 1, idx = -1;
    while (lo <= hi) {
      int mid = (lo + hi) / 2;
      if (files[mid]->largest.user_key().compare(user_key) >= 0) {
        idx = mid;
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    if (idx < 0) continue;
    const FileMetaPtr& f = files[idx];
    if (user_key.compare(f->smallest.user_key()) < 0) continue;
    if (perf != nullptr && !FilterAdmits(f, user_key, level, perf)) continue;
    Status s = f->table->InternalGet(ro, ikey, &state, SaveValue);
    if (!s.ok()) return s;
    if (state.found) {
      return state.deleted ? Status::NotFound("deleted") : Status::OK();
    }
  }
  return Status::NotFound("key not present");
}

void Version::AddIterators(const ReadOptions& ro,
                           std::vector<Iterator*>* iters) {
  for (const auto& level : files_) {
    for (const FileMetaPtr& f : level) {
      iters->push_back(f->table->NewIterator(ro));
    }
  }
}

uint64_t Version::NumLevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileMetaPtr& f : files_[level]) total += f->file_size;
  return total;
}

int Version::NumFiles(int level) const {
  return static_cast<int>(files_[level].size());
}

bool Version::IsBottommostForKey(int level, const Slice& user_key) const {
  for (int l = level + 1; l < num_levels(); l++) {
    for (const FileMetaPtr& f : files_[l]) {
      if (user_key.compare(f->smallest.user_key()) >= 0 &&
          user_key.compare(f->largest.user_key()) <= 0) {
        return false;
      }
    }
  }
  return true;
}

bool Version::OverlapsRange(int level, const Slice& smallest_user_key,
                            const Slice& largest_user_key) const {
  for (const FileMetaPtr& f : files_[level]) {
    if (largest_user_key.compare(f->smallest.user_key()) < 0) continue;
    if (smallest_user_key.compare(f->largest.user_key()) > 0) continue;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// VersionSet

VersionSet::VersionSet(std::string dbname, Env* env, BlockCache* cache)
    : dbname_(std::move(dbname)),
      env_(env),
      cache_(cache),
      current_(std::make_shared<Version>()) {}

Status VersionSet::OpenTable(FileMetaData* meta) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = env_->NewRandomAccessFile(TableFileName(dbname_, meta->number),
                                       &file);
  if (!s.ok()) return s;
  return Table::Open(meta->number, std::move(file), meta->file_size, cache_,
                     &meta->table);
}

Status VersionSet::Recover() {
  const std::string manifest = ManifestFileName(dbname_);
  if (!env_->FileExists(manifest)) {
    // Fresh database.
    return WriteSnapshot();
  }

  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(manifest, &file);
  if (!s.ok()) return s;
  LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  if (!reader.ReadRecord(&record, &scratch)) {
    return Status::Corruption("empty or corrupt MANIFEST");
  }

  Slice input = record;
  uint64_t next_file, last_seq, wal_number;
  uint32_t num_levels;
  if (!GetVarint64(&input, &next_file) || !GetVarint64(&input, &last_seq) ||
      !GetVarint64(&input, &wal_number) || !GetVarint32(&input, &num_levels)) {
    return Status::Corruption("bad MANIFEST header");
  }
  // Sanity caps: the CRC already screens random corruption, but a valid-CRC
  // record from the wrong file (or a bug) must neither drive huge
  // allocations nor place a table below the tree's last level.
  if (num_levels > static_cast<uint32_t>(kNumLevels)) {
    return Status::Corruption("bad MANIFEST level count");
  }
  next_file_number_.store(next_file, std::memory_order_relaxed);
  last_sequence_ = last_seq;
  wal_number_ = wal_number;

  auto v = std::make_shared<Version>();
  for (uint32_t level = 0; level < num_levels; level++) {
    uint32_t count;
    if (!GetVarint32(&input, &count) || count > (1u << 20)) {
      return Status::Corruption("bad MANIFEST level count");
    }
    for (uint32_t i = 0; i < count; i++) {
      auto meta = std::make_shared<FileMetaData>();
      Slice smallest, largest;
      if (!GetVarint64(&input, &meta->number) ||
          !GetVarint64(&input, &meta->file_size) ||
          !GetLengthPrefixedSlice(&input, &smallest) ||
          !GetLengthPrefixedSlice(&input, &largest)) {
        return Status::Corruption("bad MANIFEST file record");
      }
      meta->smallest.DecodeFrom(smallest);
      meta->largest.DecodeFrom(largest);
      if (!env_->FileExists(TableFileName(dbname_, meta->number))) {
        // The MANIFEST is the commit record: a referenced table that is not
        // on disk means the directory is damaged, not "empty".
        return Status::Corruption("MANIFEST references missing table file " +
                                  TableFileName(dbname_, meta->number));
      }
      s = OpenTable(meta.get());
      if (!s.ok()) return s;
      v->files_[level].push_back(std::move(meta));
    }
  }
  std::sort(v->files_[0].begin(), v->files_[0].end(), NewestFirst);
  for (int level = 1; level < v->num_levels(); level++) {
    std::sort(v->files_[level].begin(), v->files_[level].end(), BySmallestKey);
  }
  current_ = std::move(v);
  return Status::OK();
}

Status VersionSet::WriteSnapshot() {
  std::string record;
  PutVarint64(&record, next_file_number_.load(std::memory_order_relaxed));
  PutVarint64(&record, last_sequence_);
  PutVarint64(&record, wal_number_);
  PutVarint32(&record, static_cast<uint32_t>(current_->num_levels()));
  for (int level = 0; level < current_->num_levels(); level++) {
    const auto& files = current_->LevelFiles(level);
    PutVarint32(&record, static_cast<uint32_t>(files.size()));
    for (const FileMetaPtr& f : files) {
      PutVarint64(&record, f->number);
      PutVarint64(&record, f->file_size);
      PutLengthPrefixedSlice(&record, f->smallest.Encode());
      PutLengthPrefixedSlice(&record, f->largest.Encode());
    }
  }

  const std::string tmp = TempManifestFileName(dbname_);
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(tmp, &file);
  if (!s.ok()) return s;
  LogWriter writer(std::move(file));
  s = writer.AddRecord(record);
  // Sync before the rename publishes it: the renamed MANIFEST must never be
  // shorter than what its tables and WAL deletions assume.
  if (s.ok()) s = writer.file()->Sync();
  if (s.ok()) s = writer.Close();
  if (s.ok()) s = env_->RenameFile(tmp, ManifestFileName(dbname_));
  return s;
}

Status VersionSet::InstallVersion(int level, std::vector<FileMetaPtr> added,
                                  const std::vector<uint64_t>& removed_numbers,
                                  int removed_level_hint) {
  (void)removed_level_hint;
  auto v = std::make_shared<Version>();
  for (int l = 0; l < current_->num_levels(); l++) {
    for (const FileMetaPtr& f : current_->LevelFiles(l)) {
      if (std::find(removed_numbers.begin(), removed_numbers.end(),
                    f->number) == removed_numbers.end()) {
        v->files_[l].push_back(f);
      }
    }
  }
  for (FileMetaPtr& f : added) {
    v->files_[level].push_back(std::move(f));
  }
  std::sort(v->files_[0].begin(), v->files_[0].end(), NewestFirst);
  for (int l = 1; l < v->num_levels(); l++) {
    std::sort(v->files_[l].begin(), v->files_[l].end(), BySmallestKey);
  }
  current_ = std::move(v);
  return WriteSnapshot();
}

std::vector<uint64_t> VersionSet::LiveFiles() const {
  std::vector<uint64_t> live;
  for (int l = 0; l < current_->num_levels(); l++) {
    for (const FileMetaPtr& f : current_->LevelFiles(l)) {
      live.push_back(f->number);
    }
  }
  return live;
}

}  // namespace tman::kv
