#ifndef TMAN_GEO_DOUGLAS_PEUCKER_H_
#define TMAN_GEO_DOUGLAS_PEUCKER_H_

#include <cstdint>
#include <string>
#include <vector>

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
// Decoding returns false on malformed input.
void EncodeDPFeatures(const DPFeatures& features, std::string* out);
bool DecodeDPFeatures(const char* data, size_t size, DPFeatures* features);

}  // namespace tman::geo

#endif  // TMAN_GEO_DOUGLAS_PEUCKER_H_
