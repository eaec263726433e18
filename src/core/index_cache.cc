#include "core/index_cache.h"

#include <algorithm>

#include "common/coding.h"

namespace tman::core {

IndexCache::IndexCache(cache::RedisLikeStore* redis, size_t lfu_capacity,
                       int shape_bits, obs::MetricsRegistry* registry)
    : redis_(redis),
      lfu_(lfu_capacity),
      code_space_(uint64_t{1} << shape_bits) {
  if (registry != nullptr) {
    lfu_.BindMetrics(registry->GetCounter("tman_index_cache_hits_total"),
                     registry->GetCounter("tman_index_cache_misses_total"),
                     registry->GetCounter("tman_index_cache_evictions_total"));
    ext_redis_loads_ =
        registry->GetCounter("tman_index_cache_redis_loads_total");
  }
}

std::string IndexCache::RedisKey(uint64_t quad_code) {
  std::string key = "el:";
  PutFixed64(&key, quad_code);
  return key;
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
  std::shared_ptr<const ElementShapes> cached;
  if (lfu_.Get(quad_code, &cached)) {
    return cached;
  }
  std::lock_guard<std::mutex> lock(ElementLock(quad_code));
  return LoadLocked(quad_code);
}

std::shared_ptr<const ElementShapes> IndexCache::LoadLocked(
    uint64_t quad_code) const {
  redis_loads_.fetch_add(1, std::memory_order_relaxed);
  if (ext_redis_loads_ != nullptr) ext_redis_loads_->Inc();
  auto shapes = std::make_shared<ElementShapes>();
  for (const auto& [field, value] : redis_->HGetAll(RedisKey(quad_code))) {
    if (field.size() != 4 || value.size() != 4) continue;
    shapes->shapes.emplace_back(DecodeFixed32(field.data()),
                                DecodeFixed32(value.data()));
  }
  std::sort(shapes->shapes.begin(), shapes->shapes.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::shared_ptr<const ElementShapes> result = std::move(shapes);
  lfu_.Put(quad_code, result);
  return result;
}

std::vector<uint32_t> IndexCache::PlaceShapes(
    uint64_t quad_code, const std::vector<uint32_t>& bits) {
  std::vector<uint32_t> codes(bits.size());
  std::lock_guard<std::mutex> lock(ElementLock(quad_code));
  const bool occupied = NextOccupied(quad_code) == quad_code;
  std::shared_ptr<const ElementShapes> current;
  if (occupied && !lfu_.Get(quad_code, &current)) {
    current = LoadLocked(quad_code);
  }
  auto updated = std::make_shared<ElementShapes>();
  if (current != nullptr) updated->shapes = current->shapes;
  index::ShapeList& shapes = updated->shapes;
  const bool fresh = shapes.empty();
  const std::vector<uint32_t> spread =
      fresh ? index::SpreadCodes(bits.size(), code_space_)
            : std::vector<uint32_t>();
  // Joined before the first shape is written, so before any row is.
  if (!occupied && !bits.empty()) MarkOccupied(quad_code);
  const std::string key = RedisKey(quad_code);
  size_t added = 0;
  for (size_t i = 0; i < bits.size(); i++) {
    if (fresh) {
      codes[i] = spread[i];
    } else {
      codes[i] = updated->FinalCodeOf(bits[i]);
      if (codes[i] != UINT32_MAX) continue;
      codes[i] = index::PlaceShape(shapes, bits[i], code_space_);
    }
    shapes.insert(std::upper_bound(shapes.begin(), shapes.end(), codes[i],
                                   [](uint32_t code, const auto& shape) {
                                     return code < shape.second;
                                   }),
                  {bits[i], codes[i]});
    std::string field, value;
    PutFixed32(&field, bits[i]);
    PutFixed32(&value, codes[i]);
    redis_->HSet(key, field, value);
    added++;
  }
  if (added > 0) {
    registered_shapes_.fetch_add(added, std::memory_order_relaxed);
    lfu_.Put(quad_code,
             std::shared_ptr<const ElementShapes>(std::move(updated)));
  }
  return codes;
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

void IndexCache::MarkOccupied(uint64_t quad_code) {
  std::unique_lock<std::shared_mutex> lock(occupied_mu_);
  occupied_.insert(quad_code);
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
