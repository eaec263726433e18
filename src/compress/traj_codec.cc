#include "compress/traj_codec.h"

#include "common/coding.h"
#include "compress/gorilla.h"
#include "compress/simple8b.h"

namespace tman::compress {

namespace {

// One step of delta-of-delta decoding: folds `encoded` into the running
// value and delta and returns the value. Wraps instead of overflowing on
// malformed input.
int64_t DeltaOfDeltaStep(uint64_t encoded, int64_t* value, int64_t* delta) {
  *delta = static_cast<int64_t>(static_cast<uint64_t>(*delta) +
                                static_cast<uint64_t>(ZigZagDecode64(encoded)));
  *value = static_cast<int64_t>(static_cast<uint64_t>(*value) +
                                static_cast<uint64_t>(*delta));
  return *value;
}

}  // namespace

void DeltaOfDeltaEncode(const std::vector<int64_t>& values,
                        std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(values.size());
  int64_t prev = 0;
  int64_t prev_delta = 0;
  for (size_t i = 0; i < values.size(); i++) {
    const int64_t delta = values[i] - prev;
    const int64_t dod = delta - prev_delta;
    out->push_back(ZigZagEncode64(dod));
    prev = values[i];
    prev_delta = delta;
  }
}

void DeltaOfDeltaDecode(const std::vector<uint64_t>& encoded,
                        std::vector<int64_t>* out) {
  out->clear();
  out->reserve(encoded.size());
  int64_t value = 0;
  int64_t delta = 0;
  for (uint64_t e : encoded) {
    out->push_back(DeltaOfDeltaStep(e, &value, &delta));
  }
}

bool EncodePoints(const PointColumns& columns, std::string* out) {
  const size_t n = columns.timestamps.size();
  if (columns.lons.size() != n || columns.lats.size() != n) return false;

  std::vector<uint64_t> dod;
  DeltaOfDeltaEncode(columns.timestamps, &dod);
  std::string ts_blob;
  if (!Simple8bEncode(dod, &ts_blob)) return false;

  GorillaEncoder lon_enc, lat_enc;
  for (size_t i = 0; i < n; i++) {
    lon_enc.Add(columns.lons[i]);
    lat_enc.Add(columns.lats[i]);
  }
  const std::string lon_blob = lon_enc.Finish();
  const std::string lat_blob = lat_enc.Finish();

  PutVarint32(out, static_cast<uint32_t>(n));
  PutLengthPrefixedSlice(out, ts_blob);
  PutLengthPrefixedSlice(out, lon_blob);
  PutLengthPrefixedSlice(out, lat_blob);
  return true;
}

PointReader::Layout PointReader::Parse(const char* data, size_t size) {
  Layout layout;
  Slice input(data, size);
  layout.ok = GetVarint32(&input, &layout.count) &&
              GetLengthPrefixedSlice(&input, &layout.ts) &&
              GetLengthPrefixedSlice(&input, &layout.lon) &&
              GetLengthPrefixedSlice(&input, &layout.lat);
  return layout;
}

PointReader::PointReader(const char* data, size_t size, bool timestamps)
    : PointReader(Parse(data, size), timestamps) {}

PointReader::PointReader(const Layout& layout, bool timestamps)
    : timestamps_(timestamps),
      count_(layout.count),
      ts_(layout.ts.data(), layout.ts.size()),
      lon_(layout.lon.data(), layout.lon.size()),
      lat_(layout.lat.data(), layout.lat.size()) {
  ok_ = layout.ok && (!timestamps || ts_.Fits(count_)) &&
        lon_.Fits(count_) && lat_.Fits(count_);
}

bool PointReader::Next(double* lon, double* lat, int64_t* t) {
  if (!ok_ || read_ == count_) return false;
  if (timestamps_) {
    uint64_t encoded = 0;
    if (!ts_.Next(&encoded)) return false;
    DeltaOfDeltaStep(encoded, &t_, &delta_);
    if (t != nullptr) *t = t_;
  }
  if (!lon_.Next(lon) || !lat_.Next(lat)) return false;
  read_++;
  return true;
}

bool DecodePoints(const char* data, size_t size, PointColumns* columns) {
  PointReader reader(data, size, /*timestamps=*/true);
  if (!reader.ok()) return false;
  const uint32_t n = reader.count();
  columns->timestamps.clear();
  columns->lons.clear();
  columns->lats.clear();
  columns->timestamps.reserve(n);
  columns->lons.reserve(n);
  columns->lats.reserve(n);
  double lon = 0, lat = 0;
  int64_t t = 0;
  for (uint32_t i = 0; i < n; i++) {
    if (!reader.Next(&lon, &lat, &t)) return false;
    columns->timestamps.push_back(t);
    columns->lons.push_back(lon);
    columns->lats.push_back(lat);
  }
  return true;
}

}  // namespace tman::compress
