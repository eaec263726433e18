#include <gtest/gtest.h>

#include <string>

#include "cachestore/lfu_cache.h"

namespace tman::cache {
namespace {

TEST(LFUCacheTest, BasicGetPut) {
  LFUCache<int, std::string> cache(3);
  cache.Put(1, "one");
  cache.Put(2, "two");
  std::string value;
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, "one");
  EXPECT_FALSE(cache.Get(9, &value));
}

TEST(LFUCacheTest, EvictsLeastFrequentlyUsed) {
  LFUCache<int, int> cache(3);
  int v;
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  // Touch 1 and 2 repeatedly; 3 stays at frequency 1.
  for (int i = 0; i < 5; i++) {
    cache.Get(1, &v);
    cache.Get(2, &v);
  }
  cache.Put(4, 40);  // must evict 3
  EXPECT_FALSE(cache.Get(3, &v));
  EXPECT_TRUE(cache.Get(1, &v));
  EXPECT_TRUE(cache.Get(2, &v));
  EXPECT_TRUE(cache.Get(4, &v));
}

TEST(LFUCacheTest, TieBreaksLRUWithinFrequency) {
  LFUCache<int, int> cache(2);
  int v;
  cache.Put(1, 10);
  cache.Put(2, 20);
  // Both at frequency 1; access 1 so 2 becomes the LRU of freq 1... but 1
  // moves to freq 2 anyway. Insert 3: 2 must go.
  cache.Get(1, &v);
  cache.Put(3, 30);
  EXPECT_FALSE(cache.Get(2, &v));
  EXPECT_TRUE(cache.Get(1, &v));
  EXPECT_TRUE(cache.Get(3, &v));
}

TEST(LFUCacheTest, OverwriteBumpsFrequency) {
  LFUCache<int, int> cache(2);
  int v;
  cache.Put(1, 10);
  cache.Put(1, 11);  // freq 2 now
  cache.Put(2, 20);
  cache.Put(3, 30);  // evicts 2 (freq 1), not 1
  EXPECT_TRUE(cache.Get(1, &v));
  EXPECT_EQ(v, 11);
  EXPECT_FALSE(cache.Get(2, &v));
  EXPECT_TRUE(cache.Get(3, &v));
}

TEST(LFUCacheTest, EraseAndClear) {
  LFUCache<int, int> cache(4);
  cache.Put(1, 1);
  cache.Put(2, 2);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  int v;
  EXPECT_FALSE(cache.Get(1, &v));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(2, &v));
}

TEST(LFUCacheTest, HitMissCounters) {
  LFUCache<int, int> cache(2);
  int v;
  cache.Put(1, 1);
  cache.Get(1, &v);
  cache.Get(2, &v);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LFUCacheTest, BoundMetricsMirrorInternalCounters) {
  obs::MetricsRegistry registry;
  LFUCache<int, int> cache(2);
  cache.BindMetrics(registry.GetCounter("hits"), registry.GetCounter("misses"),
                    registry.GetCounter("evictions"));
  int v;
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Get(1, &v);   // hit
  cache.Get(9, &v);   // miss
  cache.Put(3, 3);    // evicts the LFU entry
  EXPECT_EQ(registry.GetCounter("hits")->value(), cache.hits());
  EXPECT_EQ(registry.GetCounter("misses")->value(), cache.misses());
  EXPECT_EQ(registry.GetCounter("evictions")->value(), cache.evictions());
  EXPECT_EQ(cache.evictions(), 1u);
}

}  // namespace
}  // namespace tman::cache
