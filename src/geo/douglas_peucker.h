#ifndef TMAN_GEO_DOUGLAS_PEUCKER_H_
#define TMAN_GEO_DOUGLAS_PEUCKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "geo/geometry.h"

namespace tman::geo {

// DP-Features (TraSS §storage): the first levels of the Douglas-Peucker
// split tree of a trajectory. Each feature is a representative point plus
// the bounding box of the sub-polyline it represents. Similarity queries
// use them for cheap lower/upper distance bounds without decompressing the
// full point column.
struct DPFeature {
  TimedPoint rep;   // split point with maximum deviation
  MBR box;          // bounds of the sub-polyline [start, end]
  uint32_t start;   // index range within the original trajectory
  uint32_t end;     // inclusive
};

struct DPFeatures {
  std::vector<DPFeature> features;  // breadth-first order of the split tree
  MBR mbr;                          // whole-trajectory bounds
};

// Extracts up to `max_features` DP features (always at least one: the whole
// trajectory). Splits proceed in order of decreasing deviation.
DPFeatures ExtractDPFeatures(const std::vector<TimedPoint>& points,
                             size_t max_features);

// Classic Douglas-Peucker simplification: indices of the retained points.
std::vector<uint32_t> DouglasPeucker(const std::vector<TimedPoint>& points,
                                     double epsilon);

// Compact (de)serialization of DPFeatures for the `features` column.
// Decoding (a loop over DPFeatureReader) returns false on malformed input.
void EncodeDPFeatures(const DPFeatures& features, std::string* out);
bool DecodeDPFeatures(const char* data, size_t size, DPFeatures* features);

// Reads a stored `features` column in place, one feature at a time. Never
// reads past the column.
class DPFeatureReader {
 public:
  DPFeatureReader(const char* data, size_t size);

  // False when the column's MBR or count is malformed, or the count is more
  // than its bytes can hold (a feature takes at least 51). Checked before
  // anything else is read, so a caller that sizes a buffer by count()
  // checks it first.
  bool ok() const { return ok_; }
  const MBR& mbr() const { return mbr_; }
  uint32_t count() const { return count_; }

  // Reads the next feature; false on malformed input or after count()
  // features.
  bool Next(DPFeature* feature);

 private:
  Slice input_;
  MBR mbr_;
  uint32_t count_ = 0;
  uint32_t read_ = 0;
  bool ok_ = false;
};

// True when the stored features whose boxes miss `rect` together span every
// segment of the `num_points` points the column was extracted from (the
// point itself when there is one). No such polyline meets `rect`: each
// segment lies in a missing box, so both its endpoints are outside `rect`
// on the same side. False when the spans leave a gap, or when the column
// does not decode.
bool DPBoxesMissRect(const char* column, size_t size, uint32_t num_points,
                     const MBR& rect);

}  // namespace tman::geo

#endif  // TMAN_GEO_DOUGLAS_PEUCKER_H_
