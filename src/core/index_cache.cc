#include "core/index_cache.h"

#include <algorithm>

#include "common/coding.h"

namespace tman::core {

IndexCache::IndexCache(cache::RedisLikeStore* redis, size_t lfu_capacity,
                       obs::MetricsRegistry* registry)
    : redis_(redis), lfu_(lfu_capacity) {
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
  // Miss: load the element's tuples from Redis.
  std::lock_guard<std::mutex> lock(ElementLock(quad_code));
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

void IndexCache::PutElement(uint64_t quad_code, index::ShapeList shapes) {
  MarkOccupied(quad_code);
  auto element = std::make_shared<ElementShapes>();
  element->shapes = std::move(shapes);
  std::sort(element->shapes.begin(), element->shapes.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  const std::string key = RedisKey(quad_code);
  std::lock_guard<std::mutex> lock(ElementLock(quad_code));
  redis_->Del(key);
  for (const auto& [bits, code] : element->shapes) {
    std::string field, value;
    PutFixed32(&field, bits);
    PutFixed32(&value, code);
    redis_->HSet(key, field, value);
  }
  lfu_.Put(quad_code, std::shared_ptr<const ElementShapes>(std::move(element)));
}

void IndexCache::AddShape(uint64_t quad_code, uint32_t bits,
                          uint32_t final_code) {
  MarkOccupied(quad_code);
  std::string field, value;
  PutFixed32(&field, bits);
  PutFixed32(&value, final_code);
  std::lock_guard<std::mutex> lock(ElementLock(quad_code));
  redis_->HSet(RedisKey(quad_code), field, value);
  // Refresh the LFU copy if resident.
  std::shared_ptr<const ElementShapes> cached;
  if (lfu_.Get(quad_code, &cached)) {
    auto updated = std::make_shared<ElementShapes>(*cached);
    updated->shapes.emplace_back(bits, final_code);
    std::sort(updated->shapes.begin(), updated->shapes.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    lfu_.Put(quad_code,
             std::shared_ptr<const ElementShapes>(std::move(updated)));
  }
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

size_t BufferShapeCache::Add(uint64_t quad_code, uint32_t bits) {
  Stripe& stripe = StripeFor(quad_code);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto& shapes = stripe.buffered[quad_code];
  if (std::find(shapes.begin(), shapes.end(), bits) == shapes.end()) {
    shapes.push_back(bits);
    return count_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return count_.load(std::memory_order_relaxed);
}

bool BufferShapeCache::Contains(uint64_t quad_code, uint32_t bits) const {
  const Stripe& stripe = StripeFor(quad_code);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.buffered.find(quad_code);
  if (it == stripe.buffered.end()) return false;
  return std::find(it->second.begin(), it->second.end(), bits) !=
         it->second.end();
}

std::vector<std::pair<uint64_t, std::vector<uint32_t>>>
BufferShapeCache::Drain() {
  // Lock all stripes in index order for a consistent cross-stripe snapshot.
  std::array<std::unique_lock<std::mutex>, kNumStripes> locks;
  for (size_t i = 0; i < kNumStripes; i++) {
    locks[i] = std::unique_lock<std::mutex>(stripes_[i].mu);
  }
  std::vector<std::pair<uint64_t, std::vector<uint32_t>>> result;
  for (auto& stripe : stripes_) {
    for (auto& [code, shapes] : stripe.buffered) {
      result.emplace_back(code, std::move(shapes));
    }
    stripe.buffered.clear();
  }
  count_.store(0, std::memory_order_relaxed);
  return result;
}

}  // namespace tman::core
