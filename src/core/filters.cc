#include "core/filters.h"

#include <algorithm>
#include <iterator>

#include "geo/similarity.h"

namespace tman::core {

bool TemporalRangeFilter::Matches(const Slice& key, const Slice& value) const {
  (void)key;
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  return header.ts <= te_ && header.te >= ts_;
}

bool SpatialRangeFilter::Matches(const Slice& key, const Slice& value) const {
  (void)key;
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  if (!header.mbr.Intersects(rect_)) return false;
  if (rect_.Contains(header.mbr)) return true;
  // Borderline: the MBR overlaps the window but the polyline may not.
  std::vector<geo::TimedPoint> points;
  if (!DecodeRecordPoints(header, &points)) return false;
  return geo::PolylineIntersectsRect(points, rect_);
}

bool MBRDistanceFilter::Matches(const Slice& key, const Slice& value) const {
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  const double lower_bound = geo::MBRLowerBound(header.mbr, query_mbr_);
  if (lower_bound > radius_) return false;
  if (lower_bound > previous_radius_) return true;
  // Sorted, disjoint windows: only the last one starting at or before the
  // key can hold it.
  const auto next = std::upper_bound(
      previous_windows_.begin(), previous_windows_.end(), key,
      [](const Slice& k, const cluster::KeyRange& w) {
        return k.compare(w.start) < 0;
      });
  return next == previous_windows_.begin() ||
         !cluster::RangeContains(*std::prev(next), key);
}

bool SimilarityFilter::Matches(const Slice& key, const Slice& value) const {
  (void)key;
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  if (geo::MBRLowerBound(header.mbr, query_features_.mbr) > threshold_) {
    return false;
  }
  geo::DPFeatures features;
  if (!DecodeRecordFeatures(header, &features)) {
    return true;  // cannot bound: keep for exact verification
  }
  return geo::DPFeatureLowerBound(query_features_, features) <= threshold_;
}

}  // namespace tman::core
