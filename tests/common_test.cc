#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace tman {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(SliceTest, CompareOrdersBytewise) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("rowkey123").starts_with(Slice("rowkey")));
  EXPECT_FALSE(Slice("row").starts_with(Slice("rowkey")));
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0x0123456789abcdefULL);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(DecodeFixed64(s.data()), 0x0123456789abcdefULL);
}

TEST(CodingTest, BigEndianPreservesOrder) {
  std::string a, b;
  PutBigEndian64(&a, 100);
  PutBigEndian64(&b, 101);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_EQ(DecodeBigEndian64(a.data()), 100u);
  std::string c;
  PutBigEndian32(&c, 7);
  EXPECT_EQ(DecodeBigEndian32(c.data()), 7u);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string s;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ULL << 32) - 1, 1ULL << 63};
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice input(s);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&input, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 1ULL << 40}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, MalformedVarintRejected) {
  std::string s(11, '\xff');  // never-terminating varint
  Slice input(s);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&input, &v));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("hello"));
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("world"));
  Slice input(s);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(b.ToString(), "");
  EXPECT_EQ(c.ToString(), "world");
}

TEST(CodingTest, ZigZagRoundTrip) {
  const int64_t values[] = {0,          1,         -1,       123456789,
                            -123456789, INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v);
  }
  // Small magnitudes encode small.
  EXPECT_LT(ZigZagEncode64(-2), 5u);
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash32("abc", 3, 1), Hash32("abc", 3, 1));
  EXPECT_NE(Hash32("abc", 3, 1), Hash32("abd", 3, 1));
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
}

TEST(HashTest, Crc32cKnownValue) {
  // CRC-32C of "123456789" is a published test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformDoubleInRange) {
  Random r(7);
  for (int i = 0; i < 1000; i++) {
    double d = r.UniformDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; i++) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, ParallelForCallsEveryIndexOnce) {
  ThreadPool pool(4);
  for (size_t n : {0, 1, 3, 1000}) {
    std::vector<int> calls(n, 0);
    pool.ParallelFor(n, [&calls](size_t i) { calls[i]++; });
    for (size_t i = 0; i < n; i++) EXPECT_EQ(calls[i], 1) << n << " " << i;
  }
}

}  // namespace
}  // namespace tman
