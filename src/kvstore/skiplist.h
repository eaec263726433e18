#ifndef TMAN_KVSTORE_SKIPLIST_H_
#define TMAN_KVSTORE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdlib>

#include "kvstore/arena.h"

namespace tman::kv {

// Lock-free-read skiplist (LevelDB design).
//
// Insert requires external synchronization (at most one writer at a time)
// but may run against any number of concurrent readers; reads only require
// that the skiplist outlive them.
//
// Key is a trivially copyable handle (here: const char* into the arena).
// Comparator is a functor: int operator()(const Key&, const Key&) const.
template <typename Key, class Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(0 /* any key */, kMaxHeight)),
        max_height_(1) {
    for (int i = 0; i < kMaxHeight; i++) {
      head_->SetNext(i, nullptr);
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Requires: nothing that compares equal to key is already in the list,
  // and no other writer is active.
  void Insert(const Key& key) {
    Node* prev[kMaxHeight];
    Node* x = FindGreaterOrEqual(key, prev);
    assert(x == nullptr || !Equal(key, x->key));

    int height = RandomHeight();
    if (height > GetMaxHeight()) {
      for (int i = GetMaxHeight(); i < height; i++) {
        prev[i] = head_;
      }
      max_height_.store(height, std::memory_order_relaxed);
    }

    x = NewNode(key, height);
    for (int i = 0; i < height; i++) {
      x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
      prev[i]->SetNext(i, x);
    }
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && Equal(key, x->key);
  }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    const Key& key() const {
      assert(Valid());
      return node_->key;
    }

    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }

    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) node_ = nullptr;
    }

    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

    void SeekToFirst() { node_ = list_->head_->Next(0); }

    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) node_ = nullptr;
    }

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    const Key key;

    Node* Next(int n) {
      return next_[n].load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) {
      return next_[n].load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }

   private:
    // Array length equals node height; extends past the struct.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  // Height generator: each call draws a fresh splitmix64 value, then
  // spends 2 bits per level (kBranching == 4). Deterministic across runs
  // for a fixed insert order. Called only by the single writer.
  int RandomHeight() {
    rand_state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = rand_state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    int height = 1;
    while (height < kMaxHeight && (z & (kBranching - 1)) == 0) {
      height++;
      z >>= 2;
    }
    return height;
  }

  bool Equal(const Key& a, const Key& b) const { return compare_(a, b) == 0; }

  bool KeyIsAfterNode(const Key& key, Node* n) const {
    return n != nullptr && compare_(n->key, key) < 0;
  }

  Node* FindGreaterOrEqual(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    for (;;) {
      Node* next = x->Next(level);
      if (KeyIsAfterNode(key, next)) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        level--;
      }
    }
  }

  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    for (;;) {
      Node* next = x->Next(level);
      if (next == nullptr || compare_(next->key, key) >= 0) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    for (;;) {
      Node* next = x->Next(level);
      if (next == nullptr) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;  // read by concurrent readers
  uint64_t rand_state_ = 0xdeadbeef;
};

}  // namespace tman::kv

#endif  // TMAN_KVSTORE_SKIPLIST_H_
