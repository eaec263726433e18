#include "core/index_cache.h"

#include <algorithm>
#include <unordered_map>

#include "common/coding.h"
#include "common/stopwatch.h"

namespace tman::core {

namespace {

std::string EncodeShapes(const index::ShapeList& shapes) {
  std::string value;
  value.reserve(8 * shapes.size());
  for (const auto& [bits, code] : shapes) {
    PutFixed32(&value, bits);
    PutFixed32(&value, code);
  }
  return value;
}

bool DecodeShapes(const std::string& value, index::ShapeList* shapes) {
  if (value.size() % 8 != 0) return false;
  shapes->reserve(value.size() / 8);
  for (size_t off = 0; off < value.size(); off += 8) {
    shapes->emplace_back(DecodeFixed32(value.data() + off),
                         DecodeFixed32(value.data() + off + 4));
  }
  return true;
}

}  // namespace

IndexCache::IndexCache(cluster::ClusterTable* meta, size_t lfu_capacity,
                       int shape_bits, obs::MetricsRegistry* registry)
    : meta_(meta),
      lfu_(lfu_capacity),
      code_space_(uint64_t{1} << shape_bits) {
  if (registry != nullptr) {
    lfu_.BindMetrics(registry->GetCounter("tman_index_cache_hits_total"),
                     registry->GetCounter("tman_index_cache_misses_total"),
                     registry->GetCounter("tman_index_cache_evictions_total"));
    ext_catalog_loads_ =
        registry->GetCounter("tman_index_cache_catalog_loads_total");
  }
}

std::string IndexCache::CatalogKey(uint64_t quad_code) {
  std::string key(1, kCatalogPrefix);
  PutBigEndian64(&key, quad_code);
  return key;
}

Status IndexCache::Open() {
  Stopwatch watch;
  cluster::KeyRange range;
  range.start = std::string(1, kCatalogPrefix);
  range.end = std::string(1, static_cast<char>(kCatalogPrefix + 1));
  std::vector<cluster::Row> rows;
  cluster::CollectRowsSink collect(&rows);
  Status s = meta_->MultiScan({range}, nullptr, 0, &collect, nullptr);
  if (!s.ok()) return s;
  std::unique_lock<std::shared_mutex> lock(occupied_mu_);
  uint64_t shapes = 0;
  for (const cluster::Row& row : rows) {
    if (row.key.size() != 9 || row.value.size() % 8 != 0) {
      return Status::Corruption("malformed shape catalog row");
    }
    // Rows arrive in key order, which is element-code order.
    occupied_.insert(occupied_.end(), DecodeBigEndian64(row.key.data() + 1));
    shapes += row.value.size() / 8;
  }
  registered_shapes_.store(shapes, std::memory_order_relaxed);
  open_stats_ = OpenStats{rows.size(), shapes, watch.ElapsedMillis()};
  return Status::OK();
}

std::shared_ptr<const ElementShapes> IndexCache::GetElement(
    uint64_t quad_code) const {
  if (NextOccupied(quad_code) != quad_code) {
    static const auto kEmpty = std::make_shared<const ElementShapes>();
    return kEmpty;
  }
  return Load(quad_code);
}

std::shared_ptr<const ElementShapes> IndexCache::Load(
    uint64_t quad_code) const {
  std::shared_ptr<const ElementShapes> element;
  if (lfu_.Get(quad_code, &element)) return element;
  std::lock_guard<std::mutex> lock(mu_);
  if (LoadLocked(quad_code, &element).ok()) return element;
  // Not installed, so the next lookup reads the row again.
  return std::make_shared<const ElementShapes>();
}

Status IndexCache::LoadLocked(
    uint64_t quad_code, std::shared_ptr<const ElementShapes>* out) const {
  catalog_loads_.fetch_add(1, std::memory_order_relaxed);
  if (ext_catalog_loads_ != nullptr) ext_catalog_loads_->Inc();
  std::string value;
  Status s = meta_->Get(CatalogKey(quad_code), &value);
  if (!s.ok() && !s.IsNotFound()) return s;
  auto element = std::make_shared<ElementShapes>();
  if (!DecodeShapes(value, &element->shapes)) {
    return Status::Corruption("malformed shape catalog row");
  }
  *out = std::move(element);
  lfu_.Put(quad_code, *out);
  return Status::OK();
}

Status IndexCache::PlaceShapes(const std::vector<ShapeRequest>& requests,
                               std::vector<std::vector<uint32_t>>* codes) {
  codes->assign(requests.size(), {});
  // The elements this call touches, with the codes picked so far.
  struct Touched {
    std::shared_ptr<ElementShapes> list;
    bool grew = false;
  };
  std::unordered_map<uint64_t, Touched> touched;
  uint64_t added = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < requests.size(); r++) {
    const ShapeRequest& request = requests[r];
    auto [it, first] = touched.try_emplace(request.quad_code);
    Touched& element = it->second;
    if (first) {
      std::shared_ptr<const ElementShapes> current;
      if (NextOccupied(request.quad_code) == request.quad_code &&
          !lfu_.Get(request.quad_code, &current)) {
        Status s = LoadLocked(request.quad_code, &current);
        if (!s.ok()) return s;
      }
      element.list = current != nullptr
                         ? std::make_shared<ElementShapes>(*current)
                         : std::make_shared<ElementShapes>();
    }
    index::ShapeList& shapes = element.list->shapes;
    std::vector<uint32_t>& out = (*codes)[r];
    out.resize(request.bits.size());
    const bool fresh = shapes.empty();
    const std::vector<uint32_t> spread =
        fresh ? index::SpreadCodes(request.bits.size(), code_space_)
              : std::vector<uint32_t>();
    for (size_t i = 0; i < request.bits.size(); i++) {
      const uint32_t bits = request.bits[i];
      if (fresh) {
        out[i] = spread[i];
      } else {
        out[i] = element.list->FinalCodeOf(bits);
        if (out[i] != UINT32_MAX) continue;
        out[i] = index::PlaceShape(shapes, bits, code_space_);
      }
      shapes.insert(std::upper_bound(shapes.begin(), shapes.end(), out[i],
                                     [](uint32_t code, const auto& shape) {
                                       return code < shape.second;
                                     }),
                    {bits, out[i]});
      element.grew = true;
      added++;
    }
  }
  if (added == 0) return Status::OK();

  std::vector<cluster::Row> rows;
  for (const auto& [quad_code, element] : touched) {
    if (element.grew) {
      rows.push_back(cluster::Row{CatalogKey(quad_code),
                                  EncodeShapes(element.list->shapes)});
    }
  }
  Status s = meta_->BatchPut(rows);
  if (!s.ok()) return s;
  // Published only once written to the meta table, and before the caller
  // writes any row under the new codes.
  std::unique_lock<std::shared_mutex> occupied_lock(occupied_mu_);
  for (auto& [quad_code, element] : touched) {
    if (element.grew) {
      lfu_.Put(quad_code, std::move(element.list));
      occupied_.insert(quad_code);
    }
  }
  registered_shapes_.fetch_add(added, std::memory_order_relaxed);
  return Status::OK();
}

uint64_t IndexCache::NextOccupied(uint64_t quad_code) const {
  std::shared_lock<std::shared_mutex> lock(occupied_mu_);
  auto it = occupied_.lower_bound(quad_code);
  return it == occupied_.end() ? UINT64_MAX : *it;
}

std::shared_ptr<const index::ShapeList> IndexCache::Shapes(
    uint64_t quad_code) const {
  std::shared_ptr<const ElementShapes> element = Load(quad_code);
  const index::ShapeList* shapes = &element->shapes;
  return std::shared_ptr<const index::ShapeList>(std::move(element), shapes);
}

size_t IndexCache::occupied_elements() const {
  std::shared_lock<std::shared_mutex> lock(occupied_mu_);
  return occupied_.size();
}

size_t IndexCache::occupancy_bytes() const {
  // One red-black-tree node per element: the key, three links and the
  // colour word (allocator overhead not included).
  constexpr size_t kNodeBytes = sizeof(uint64_t) + 4 * sizeof(void*);
  return occupied_elements() * kNodeBytes;
}

}  // namespace tman::core
