#ifndef TMAN_KVSTORE_ARENA_H_
#define TMAN_KVSTORE_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tman::kv {

// Bump allocator backing the memtable skiplist. Memory is freed only when
// the arena is destroyed (when the memtable is dropped after a flush). One
// thread allocates at a time (the memtable's single writer); MemoryUsage()
// is a relaxed atomic read, safe from any thread.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    assert(bytes > 0);
    if (bytes <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_;
      alloc_ptr_ += bytes;
      alloc_bytes_remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  // Allocation with pointer-size alignment (skiplist nodes).
  char* AllocateAligned(size_t bytes) {
    const size_t align = alignof(std::max_align_t);
    size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
    size_t slop = (current_mod == 0 ? 0 : align - current_mod);
    size_t needed = bytes + slop;
    if (needed <= alloc_bytes_remaining_) {
      char* result = alloc_ptr_ + slop;
      alloc_ptr_ += needed;
      alloc_bytes_remaining_ -= needed;
      return result;
    }
    return AllocateFallback(bytes);  // fallback is always aligned
  }

  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  // 32 KiB blocks (allocations over 8 KiB get their own block): TMan's
  // primary values are whole-trajectory records of ~1.7 KiB on Lorry-like
  // data, so they pack into shared blocks instead of taking one heap block
  // each. The memtable's usage count, which decides when it flushes,
  // includes each block's unused tail.
  static constexpr size_t kBlockSize = 32 * 1024;

  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockSize / 4) {
      // Large allocation gets its own block to limit waste.
      return AllocateNewBlock(bytes);
    }
    alloc_ptr_ = AllocateNewBlock(kBlockSize);
    alloc_bytes_remaining_ = kBlockSize;
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }

  char* AllocateNewBlock(size_t block_bytes) {
    blocks_.push_back(std::make_unique<char[]>(block_bytes));
    memory_usage_.fetch_add(block_bytes + sizeof(char*),
                            std::memory_order_relaxed);
    return blocks_.back().get();
  }

  char* alloc_ptr_ = nullptr;
  size_t alloc_bytes_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_{0};
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_ARENA_H_
