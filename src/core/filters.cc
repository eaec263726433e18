#include "core/filters.h"

#include <algorithm>
#include <iterator>

#include "compress/traj_codec.h"
#include "geo/douglas_peucker.h"
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
  // Borderline: the MBR overlaps the window but the polyline may not. The
  // point reader's state lives in this call: one filter serves every
  // region task at once.
  compress::PointReader reader(header.points_blob.data(),
                               header.points_blob.size(),
                               /*timestamps=*/false);
  // A row whose points do not decode is kept, so the sink's decode reports
  // it instead of the query dropping it.
  if (!reader.ok()) return true;
  if (geo::DPBoxesMissRect(header.dp_blob.data(), header.dp_blob.size(),
                           reader.count(), rect_)) {
    return false;
  }
  // PolylineIntersectsRect over the streamed points, stopping at the first
  // segment that meets the rect.
  geo::Point a, b;
  if (!reader.Next(&a.x, &a.y)) return reader.count() != 0;
  if (reader.count() == 1) return rect_.Contains(a);
  for (uint32_t i = 1; i < reader.count(); i++, a = b) {
    if (!reader.Next(&b.x, &b.y)) return true;
    if (geo::SegmentIntersectsRect(a, b, rect_)) return true;
  }
  return false;
}

bool MBRDistanceFilter::Matches(const Slice& key, const Slice& value) const {
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  const double lower_bound = geo::HeaderLowerBound(header.mbr, query_mbr_);
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
  if (geo::HeaderLowerBound(header.mbr, query_features_.mbr) > threshold_) {
    return false;
  }
  double bound = 0;
  if (!geo::DPFeatureLowerBound(query_features_, header.dp_blob.data(),
                                header.dp_blob.size(), &bound)) {
    return true;  // cannot bound: keep for exact verification
  }
  return bound <= threshold_;
}

}  // namespace tman::core
