#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "compress/gorilla.h"
#include "compress/simple8b.h"
#include "compress/traj_codec.h"
#include "core/record.h"

namespace tman::compress {
namespace {

TEST(Simple8bTest, RoundTripSmallValues) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 1000; i++) values.push_back(i % 7);
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, RoundTripMixedMagnitudes) {
  Random rnd(9);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; i++) {
    const int bits = static_cast<int>(rnd.Uniform(59)) + 1;
    values.push_back(rnd.Next() & ((1ULL << bits) - 1));
  }
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, ZeroRunsPackDensely) {
  std::vector<uint64_t> values(960, 0);
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  // 960 zeros = 4 words of 240 -> 32 bytes vs 7680 raw.
  EXPECT_LE(blob.size(), 64u);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, RejectsOversizedValues) {
  std::vector<uint64_t> values = {1ULL << 60};
  std::string blob;
  EXPECT_FALSE(Simple8bEncode(values, &blob));
}

TEST(Simple8bTest, RejectsCountBeyondBlob) {
  std::vector<uint64_t> values(10, 3);
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  ASSERT_EQ(blob.size(), 8u);
  std::vector<uint64_t> decoded;
  // One word holds at most 240 values, whatever its selector says.
  EXPECT_FALSE(Simple8bDecode(blob.data(), blob.size(), 241, &decoded));
  EXPECT_NO_THROW({
    EXPECT_FALSE(
        Simple8bDecode(blob.data(), blob.size(), 0xFFFFFFF0u, &decoded));
  });
  // Rejected before anything is allocated for the values.
  EXPECT_EQ(decoded.capacity(), 0u);
  EXPECT_FALSE(Simple8bReader(blob.data(), blob.size()).Fits(0xFFFFFFF0u));
}

TEST(Simple8bTest, EmptyInput) {
  std::string blob;
  ASSERT_TRUE(Simple8bEncode({}, &blob));
  EXPECT_TRUE(blob.empty());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), 0, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(GorillaTest, RoundTripGPSLikeSeries) {
  Random rnd(11);
  std::vector<double> values;
  double lon = 116.40;
  for (int i = 0; i < 2000; i++) {
    lon += rnd.UniformDouble(-0.0005, 0.0005);
    values.push_back(lon);
  }
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  const std::string blob = enc.Finish();
  // Gorilla on smooth series: well under 8 bytes per value.
  EXPECT_LT(blob.size(), values.size() * 8);

  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  ASSERT_TRUE(dec.Decode(values.size(), &decoded));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(decoded[i], values[i]) << i;  // bit-exact lossless
  }
}

TEST(GorillaTest, RoundTripConstantsAndSpecials) {
  const std::vector<double> values = {0.0,  0.0,   -0.0,  1.5,
                                      1.5,  1e300, -1e300, 3.14159};
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  const std::string blob = enc.Finish();
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  ASSERT_TRUE(dec.Decode(values.size(), &decoded));
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(std::signbit(decoded[i]), std::signbit(values[i]));
    EXPECT_EQ(decoded[i], values[i]);
  }
}

TEST(GorillaTest, TruncatedInputFailsCleanly) {
  GorillaEncoder enc;
  for (int i = 0; i < 100; i++) enc.Add(i * 0.1);
  std::string blob = enc.Finish();
  blob.resize(blob.size() / 2);
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  EXPECT_FALSE(dec.Decode(100, &decoded));
}

TEST(GorillaTest, RejectsCountBeyondBlob) {
  GorillaEncoder one;
  one.Add(116.4);
  const std::string blob = one.Finish();
  ASSERT_EQ(blob.size(), 8u);
  std::vector<double> decoded;
  // The first value takes 64 bits and every later one at least 1.
  EXPECT_TRUE(GorillaDecoder(blob.data(), blob.size()).Decode(1, &decoded));
  EXPECT_FALSE(GorillaDecoder(blob.data(), blob.size()).Decode(2, &decoded));
  EXPECT_FALSE(GorillaDecoder(blob.data(), 7).Decode(1, &decoded));
  std::vector<double> untouched;
  EXPECT_NO_THROW({
    EXPECT_FALSE(GorillaDecoder(blob.data(), blob.size())
                     .Decode(0xFFFFFFF0u, &untouched));
  });
  // Rejected before anything is allocated for the values.
  EXPECT_EQ(untouched.capacity(), 0u);
  EXPECT_FALSE(GorillaDecoder(blob.data(), blob.size()).Fits(0xFFFFFFF0u));
}

TEST(GorillaTest, DecodesEveryWindowWidth) {
  // XORs whose meaningful bits run from 1 to 64 wide at random offsets, so
  // reads cross every byte and word boundary of the bitstream.
  std::vector<double> values = {1.0};
  uint64_t bits;
  std::memcpy(&bits, &values[0], 8);
  Random rnd(5);
  for (int width = 1; width <= 64; width++) {
    for (int rep = 0; rep < 3; rep++) {
      const int shift = static_cast<int>(rnd.Uniform(65 - width));
      const uint64_t body = width == 64 ? rnd.Next()
                                        : rnd.Next() & ((1ULL << width) - 1);
      bits ^= (body | 1 | (width == 1 ? 0 : 1ULL << (width - 1))) << shift;
      double v;
      std::memcpy(&v, &bits, 8);
      if (std::isnan(v)) bits &= ~(1ULL << 62);
      std::memcpy(&v, &bits, 8);
      values.push_back(v);
    }
  }
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  const std::string blob = enc.Finish();
  std::vector<double> decoded;
  ASSERT_TRUE(GorillaDecoder(blob.data(), blob.size())
                  .Decode(values.size(), &decoded));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    uint64_t want, got;
    std::memcpy(&want, &values[i], 8);
    std::memcpy(&got, &decoded[i], 8);
    EXPECT_EQ(got, want) << i;
  }
}

TEST(DeltaOfDeltaTest, RegularTimestampsCompressToZeros) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 100; i++) ts.push_back(1400000000 + i * 30);
  std::vector<uint64_t> encoded;
  DeltaOfDeltaEncode(ts, &encoded);
  // After the first two entries every delta-of-delta is zero.
  for (size_t i = 2; i < encoded.size(); i++) {
    EXPECT_EQ(encoded[i], 0u);
  }
  std::vector<int64_t> decoded;
  DeltaOfDeltaDecode(encoded, &decoded);
  EXPECT_EQ(decoded, ts);
}

TEST(TrajCodecTest, RoundTripAndCompressionRatio) {
  Random rnd(23);
  PointColumns columns;
  double lon = 113.3, lat = 23.1;
  int64_t t = 1393632000;
  for (int i = 0; i < 1000; i++) {
    lon += rnd.UniformDouble(-0.0004, 0.0004);
    lat += rnd.UniformDouble(-0.0004, 0.0004);
    t += 28 + static_cast<int64_t>(rnd.Uniform(5));
    columns.lons.push_back(lon);
    columns.lats.push_back(lat);
    columns.timestamps.push_back(t);
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  const size_t raw_size = 1000 * (8 + 8 + 8);
  EXPECT_LT(blob.size(), raw_size) << "codec must beat raw layout";

  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
  EXPECT_EQ(decoded.lats, columns.lats);
}

TEST(TrajCodecTest, RejectsMismatchedColumns) {
  PointColumns columns;
  columns.timestamps = {1, 2, 3};
  columns.lons = {1.0, 2.0};
  columns.lats = {1.0, 2.0, 3.0};
  std::string blob;
  EXPECT_FALSE(EncodePoints(columns, &blob));
}

TEST(TrajCodecTest, SinglePoint) {
  PointColumns columns;
  columns.timestamps = {1400000000};
  columns.lons = {116.5};
  columns.lats = {39.9};
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
}

TEST(TrajCodecTest, EmptySeriesRoundTrips) {
  PointColumns columns;
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_TRUE(decoded.timestamps.empty());
  EXPECT_TRUE(decoded.lons.empty());
  EXPECT_TRUE(decoded.lats.empty());
}

TEST(TrajCodecTest, NonMonotoneTimestampsRoundTrip) {
  // Delta-of-delta must be lossless even when the series goes backwards
  // (GPS clock skew, out-of-order fixes stitched into one row).
  PointColumns columns;
  columns.timestamps = {100, 50, 200, 199, -7, 1ll << 40, 0};
  for (size_t i = 0; i < columns.timestamps.size(); i++) {
    columns.lons.push_back(116.0 + static_cast<double>(i));
    columns.lats.push_back(39.0 - static_cast<double>(i));
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
  EXPECT_EQ(decoded.lats, columns.lats);
}

TEST(TrajCodecTest, ExtremeCoordinatesRoundTrip) {
  PointColumns columns;
  columns.lons = {-180.0, 180.0, 0.0, -0.0,
                  std::numeric_limits<double>::min(),
                  std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::denorm_min(),
                  -std::numeric_limits<double>::max()};
  for (size_t i = 0; i < columns.lons.size(); i++) {
    columns.lats.push_back(i % 2 == 0 ? 90.0 : -90.0);
    columns.timestamps.push_back(static_cast<int64_t>(i));
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  // Bit-exact: -0.0 must stay -0.0, denormals must survive.
  for (size_t i = 0; i < columns.lons.size(); i++) {
    uint64_t want, got;
    std::memcpy(&want, &columns.lons[i], 8);
    std::memcpy(&got, &decoded.lons[i], 8);
    EXPECT_EQ(got, want) << "lon " << i;
  }
  EXPECT_EQ(decoded.lats, columns.lats);
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
}

// Seeded point series of length i % 200 in five families that between
// them take every Gorilla control path: GPS-like walks, runs of repeated
// values, full-width random bit patterns, IEEE specials, and quantized
// coordinates with ulp-sized steps (XORs with more than 31 leading zeros).
PointColumns SeededColumns(uint64_t i) {
  static const double kSpecials[] = {
      0.0,
      -0.0,
      1.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Random rnd(i + 1);
  PointColumns columns;
  double lon = rnd.UniformDouble(-180, 180);
  double lat = rnd.UniformDouble(-90, 90);
  int64_t t = static_cast<int64_t>(rnd.Uniform(2000000000));
  for (size_t j = 0; j < i % 200; j++) {
    switch (i % 5) {
      case 0:
        lon += rnd.UniformDouble(-5e-4, 5e-4);
        lat += rnd.UniformDouble(-5e-4, 5e-4);
        break;
      case 1:
        if (rnd.Bernoulli(0.4)) lon += rnd.UniformDouble(-1, 1);
        if (rnd.Bernoulli(0.2)) lat = -lat;
        break;
      case 2: {
        // Random bits with the top exponent bit cleared: never NaN.
        const uint64_t lon_bits = rnd.Next() & ~(1ULL << 62);
        const uint64_t lat_bits = rnd.Next() & ~(1ULL << 62);
        std::memcpy(&lon, &lon_bits, 8);
        std::memcpy(&lat, &lat_bits, 8);
        break;
      }
      case 3:
        lon = kSpecials[rnd.Uniform(9)];
        lat = kSpecials[rnd.Uniform(9)];
        break;
      default:
        if (rnd.Bernoulli(0.3)) {
          lon = std::nextafter(lon, 1e9);
        } else {
          lon = std::round((lon + rnd.UniformDouble(-1e-3, 1e-3)) * 1e5) /
                1e5;
        }
        lat = std::round((lat + rnd.UniformDouble(-1e-3, 1e-3)) * 1e5) / 1e5;
        break;
    }
    t += rnd.Bernoulli(0.1) ? -static_cast<int64_t>(rnd.Uniform(1000))
                            : 28 + static_cast<int64_t>(rnd.Uniform(5));
    columns.lons.push_back(lon);
    columns.lats.push_back(lat);
    columns.timestamps.push_back(t);
  }
  return columns;
}

TEST(TrajCodecTest, EncodingMatchesRecordedHash) {
  // Primary-table records and .bin dataset files hold these bytes, so the
  // encoder's output must never change: the hash was recorded from the
  // original bit-at-a-time encoder. The round trip checks the decoder on
  // the same series.
  std::string all;
  for (uint64_t i = 0; i < 300; i++) {
    const PointColumns columns = SeededColumns(i);
    std::string blob;
    ASSERT_TRUE(EncodePoints(columns, &blob));
    PutFixed32(&all, static_cast<uint32_t>(blob.size()));
    all += blob;

    PointColumns decoded;
    ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded)) << i;
    EXPECT_EQ(decoded.timestamps, columns.timestamps) << i;
    ASSERT_EQ(decoded.lons.size(), columns.lons.size()) << i;
    ASSERT_EQ(decoded.lats.size(), columns.lats.size()) << i;
    for (size_t j = 0; j < columns.lons.size(); j++) {
      EXPECT_EQ(std::memcmp(&decoded.lons[j], &columns.lons[j], 8), 0) << i;
      EXPECT_EQ(std::memcmp(&decoded.lats[j], &columns.lats[j], 8), 0) << i;
    }
  }
  EXPECT_EQ(Hash64(all.data(), all.size()), 0x5fd25ffefef91c06ULL);
}

// The streaming readers yield, bit for bit, the series that the batch
// decoders returned before they became loops over the readers: the 300
// recorded series above.
TEST(TrajCodecTest, StreamingReadersMatchTheRecordedSeries) {
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (uint64_t i = 0; i < 300; i++) {
    const PointColumns columns = SeededColumns(i);
    const size_t n = columns.lons.size();
    std::string blob;
    ASSERT_TRUE(EncodePoints(columns, &blob));
    for (bool timestamps : {false, true}) {
      PointReader reader(blob.data(), blob.size(), timestamps);
      ASSERT_TRUE(reader.ok()) << i;
      ASSERT_EQ(reader.count(), n) << i;
      for (size_t j = 0; j < n; j++) {
        double lon, lat;
        int64_t t = -1;
        ASSERT_TRUE(reader.Next(&lon, &lat, &t)) << i << " " << j;
        EXPECT_TRUE(same_bits(lon, columns.lons[j])) << i << " " << j;
        EXPECT_TRUE(same_bits(lat, columns.lats[j])) << i << " " << j;
        EXPECT_EQ(t, timestamps ? columns.timestamps[j] : -1) << i << " " << j;
      }
      double lon, lat;
      EXPECT_FALSE(reader.Next(&lon, &lat)) << i;
    }

    // The column readers on their own.
    GorillaEncoder enc;
    for (double v : columns.lats) enc.Add(v);
    const std::string gorilla = enc.Finish();
    GorillaDecoder lats(gorilla.data(), gorilla.size());
    ASSERT_TRUE(lats.Fits(n)) << i;
    for (size_t j = 0; j < n; j++) {
      double v;
      ASSERT_TRUE(lats.Next(&v)) << i << " " << j;
      EXPECT_TRUE(same_bits(v, columns.lats[j])) << i << " " << j;
    }
    std::vector<uint64_t> dod;
    DeltaOfDeltaEncode(columns.timestamps, &dod);
    std::string packed;
    ASSERT_TRUE(Simple8bEncode(dod, &packed));
    Simple8bReader values(packed.data(), packed.size());
    ASSERT_TRUE(values.Fits(n)) << i;
    for (size_t j = 0; j < n; j++) {
      uint64_t v;
      ASSERT_TRUE(values.Next(&v)) << i << " " << j;
      EXPECT_EQ(v, dod[j]) << i << " " << j;
    }
  }
}

TEST(TrajCodecTest, RejectsCorruptCount) {
  const PointColumns columns = SeededColumns(50);
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  // Rewrite the leading point count (one varint byte for 50 points).
  ASSERT_EQ(static_cast<uint8_t>(blob[0]), 50u);
  std::string corrupt;
  PutVarint32(&corrupt, 0xFFFFFFF0u);
  corrupt.append(blob, 1);
  PointColumns decoded;
  EXPECT_NO_THROW({
    EXPECT_FALSE(DecodePoints(corrupt.data(), corrupt.size(), &decoded));
  });
  // Rejected before anything is allocated or read: by the readers, with
  // and without the timestamp column, and by the record decoder.
  EXPECT_EQ(decoded.timestamps.capacity(), 0u);
  EXPECT_EQ(decoded.lons.capacity(), 0u);
  EXPECT_EQ(decoded.lats.capacity(), 0u);
  EXPECT_FALSE(PointReader(corrupt.data(), corrupt.size(), true).ok());
  EXPECT_FALSE(PointReader(corrupt.data(), corrupt.size(), false).ok());
  core::RecordHeader header;
  header.points_blob = Slice(corrupt);
  std::vector<geo::TimedPoint> points;
  EXPECT_FALSE(core::DecodeRecordPoints(header, &points));
  EXPECT_EQ(points.capacity(), 0u);
}

// Decodes `input` and checks the contract for malformed blobs: either
// false, or exactly the count the blob declares in every column. The
// streaming readers, with and without timestamps, and the record decoder
// agree with DecodePoints, point for point.
void ExpectDecodesCleanly(const std::vector<char>& input) {
  PointColumns decoded;
  bool ok = false;
  EXPECT_NO_THROW(ok = DecodePoints(input.data(), input.size(), &decoded));

  core::RecordHeader header;
  header.points_blob = Slice(input.data(), input.size());
  std::vector<geo::TimedPoint> points;
  EXPECT_EQ(core::DecodeRecordPoints(header, &points), ok);

  // Without timestamps the reader never touches their column, so it may
  // read every point of a blob whose timestamp column is malformed; it
  // never yields a point DecodePoints would not.
  PointReader xy(input.data(), input.size(), /*timestamps=*/false);
  size_t streamed = 0;
  double lon, lat;
  while (xy.Next(&lon, &lat)) {
    if (ok) {
      EXPECT_EQ(std::memcmp(&lon, &decoded.lons[streamed], 8), 0);
      EXPECT_EQ(std::memcmp(&lat, &decoded.lats[streamed], 8), 0);
    }
    streamed++;
  }
  EXPECT_LE(streamed, xy.count());
  if (!ok) return;
  EXPECT_EQ(streamed, decoded.lons.size());

  Slice blob(input.data(), input.size());
  uint32_t count = 0;
  ASSERT_TRUE(GetVarint32(&blob, &count));
  EXPECT_EQ(decoded.timestamps.size(), count);
  EXPECT_EQ(decoded.lons.size(), count);
  EXPECT_EQ(decoded.lats.size(), count);
  ASSERT_EQ(points.size(), count);
  for (size_t i = 0; i < count; i++) {
    EXPECT_EQ(points[i].t, decoded.timestamps[i]);
    EXPECT_EQ(std::memcmp(&points[i].x, &decoded.lons[i], 8), 0);
    EXPECT_EQ(std::memcmp(&points[i].y, &decoded.lats[i], 8), 0);
  }
}

TEST(TrajCodecTest, MalformedInputNeverReadsPastTheBlob) {
  // Each input sits in an exactly sized heap buffer, so a sanitizer build
  // flags any load past its end (the Gorilla reader loads 8 bytes at a
  // time away from a blob's tail).
  Random rnd(41);
  for (uint64_t series : {3, 7, 24, 60, 121, 198}) {
    std::string blob;
    ASSERT_TRUE(EncodePoints(SeededColumns(series), &blob));
    for (size_t len = 0; len <= blob.size(); len++) {
      ExpectDecodesCleanly(std::vector<char>(blob.begin(),
                                             blob.begin() + len));
    }
    for (int trial = 0; trial < 300; trial++) {
      std::vector<char> corrupt(blob.begin(), blob.end());
      const int flips = 1 + static_cast<int>(rnd.Uniform(3));
      for (int f = 0; f < flips; f++) {
        corrupt[rnd.Uniform(corrupt.size())] ^=
            static_cast<char>(1 + rnd.Uniform(255));
      }
      ExpectDecodesCleanly(corrupt);
    }
  }
  // The column decoders on their own, at every prefix of a bare blob.
  const PointColumns columns = SeededColumns(96);
  GorillaEncoder enc;
  for (double v : columns.lons) enc.Add(v);
  const std::string gorilla = enc.Finish();
  std::vector<uint64_t> dod;
  DeltaOfDeltaEncode(columns.timestamps, &dod);
  std::string packed;
  ASSERT_TRUE(Simple8bEncode(dod, &packed));
  for (size_t len = 0; len <= gorilla.size(); len++) {
    const std::vector<char> prefix(gorilla.begin(), gorilla.begin() + len);
    std::vector<double> values;
    bool ok = false;
    EXPECT_NO_THROW(ok = GorillaDecoder(prefix.data(), prefix.size())
                             .Decode(columns.lons.size(), &values));
    if (ok) {
      EXPECT_EQ(values.size(), columns.lons.size());
    }
    // The reader alone, read until it refuses: never past the prefix.
    GorillaDecoder reader(prefix.data(), prefix.size());
    size_t read = 0;
    double v;
    while (reader.Next(&v)) read++;
    EXPECT_LE(read, len * 8 < 64 ? 0 : len * 8 - 63);
  }
  for (size_t len = 0; len <= packed.size(); len++) {
    const std::vector<char> prefix(packed.begin(), packed.begin() + len);
    std::vector<uint64_t> values;
    bool ok = false;
    EXPECT_NO_THROW(ok = Simple8bDecode(prefix.data(), prefix.size(),
                                        dod.size(), &values));
    if (ok) {
      EXPECT_EQ(values.size(), dod.size());
    }
    Simple8bReader reader(prefix.data(), prefix.size());
    size_t read = 0;
    uint64_t v;
    while (reader.Next(&v)) read++;
    EXPECT_LE(read, len / 8 * 240);
  }
}

TEST(TrajCodecTest, CorruptedPayloadFailsCleanly) {
  PointColumns columns;
  for (int i = 0; i < 300; i++) {
    columns.timestamps.push_back(1400000000 + i * 5);
    columns.lons.push_back(116.3 + i * 1e-5);
    columns.lats.push_back(39.9 + i * 1e-5);
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));

  // Every truncation must be rejected, never crash or hand back columns of
  // the wrong length.
  for (size_t len = 0; len < blob.size(); len += 7) {
    PointColumns decoded;
    if (DecodePoints(blob.data(), len, &decoded)) {
      EXPECT_EQ(decoded.timestamps.size(), columns.timestamps.size());
    }
  }
  // Single-byte flips either fail or decode to *some* equal-length columns
  // (the blob has no checksum of its own; the SSTable trailer CRC guards
  // end-to-end integrity).
  Random rnd(31);
  for (int trial = 0; trial < 100; trial++) {
    std::string mut = blob;
    mut[rnd.Uniform(static_cast<int>(mut.size()))] ^=
        static_cast<char>(1 + rnd.Uniform(255));
    PointColumns decoded;
    if (DecodePoints(mut.data(), mut.size(), &decoded)) {
      EXPECT_EQ(decoded.lons.size(), decoded.timestamps.size());
      EXPECT_EQ(decoded.lats.size(), decoded.timestamps.size());
    }
  }
}

}  // namespace
}  // namespace tman::compress
