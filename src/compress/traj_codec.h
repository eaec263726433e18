#ifndef TMAN_COMPRESS_TRAJ_CODEC_H_
#define TMAN_COMPRESS_TRAJ_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "compress/gorilla.h"
#include "compress/simple8b.h"

namespace tman::compress {

// Columnar, lossless codec for the `points` column of a trajectory row
// (paper §IV-B(1)). The three coordinate arrays are compressed
// independently:
//   timestamps -> delta-of-delta, zigzag, simple8b
//   longitude  -> Gorilla XOR bitstream
//   latitude   -> Gorilla XOR bitstream
// Layout: varint32 count | varint32 ts_len | ts | varint32 lon_len | lon
//         | varint32 lat_len | lat

struct PointColumns {
  std::vector<int64_t> timestamps;
  std::vector<double> lons;
  std::vector<double> lats;
};

// Encodes the columns; all three vectors must have equal length.
bool EncodePoints(const PointColumns& columns, std::string* out);

// Reads a blob produced by EncodePoints one point at a time, in order,
// without materializing its columns. Never reads past the blob.
class PointReader {
 public:
  // Parses the blob's header. With `timestamps` false the timestamp column
  // is never read, and Next never sets *t.
  PointReader(const char* data, size_t size, bool timestamps);

  // False when the header is malformed or declares more points than a
  // column the reader reads can hold. Checked before anything is read, so
  // a caller that sizes a buffer by count() checks it first.
  bool ok() const { return ok_; }
  uint32_t count() const { return count_; }

  // Reads the next point; false on malformed input or after count() points.
  bool Next(double* lon, double* lat, int64_t* t = nullptr);

 private:
  struct Layout {
    bool ok = false;
    uint32_t count = 0;
    Slice ts, lon, lat;
  };
  static Layout Parse(const char* data, size_t size);
  PointReader(const Layout& layout, bool timestamps);

  bool ok_ = false;
  bool timestamps_;
  uint32_t count_;
  uint32_t read_ = 0;
  Simple8bReader ts_;
  GorillaDecoder lon_;
  GorillaDecoder lat_;
  int64_t t_ = 0;      // the last timestamp read
  int64_t delta_ = 0;  // and its delta from the one before
};

// Decodes a blob produced by EncodePoints with a PointReader.
bool DecodePoints(const char* data, size_t size, PointColumns* columns);

// Timestamp helper codecs, exposed for tests and benchmarks.
void DeltaOfDeltaEncode(const std::vector<int64_t>& values,
                        std::vector<uint64_t>* out);
void DeltaOfDeltaDecode(const std::vector<uint64_t>& encoded,
                        std::vector<int64_t>* out);

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_TRAJ_CODEC_H_
