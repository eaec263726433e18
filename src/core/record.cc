#include "core/record.h"

#include <cstring>

#include "common/coding.h"
#include "compress/traj_codec.h"

namespace tman::core {

namespace {

void PutDouble(std::string* out, double d) {
  uint64_t bits;
  memcpy(&bits, &d, sizeof(bits));
  PutFixed64(out, bits);
}

bool GetDouble(Slice* input, double* d) {
  if (input->size() < 8) return false;
  const uint64_t bits = DecodeFixed64(input->data());
  input->remove_prefix(8);
  memcpy(d, &bits, sizeof(*d));
  return true;
}

}  // namespace

bool EncodeRecord(const traj::Trajectory& trajectory, size_t max_dp_features,
                  std::string* out) {
  if (trajectory.points.empty()) return false;

  compress::PointColumns columns;
  columns.timestamps.reserve(trajectory.points.size());
  columns.lons.reserve(trajectory.points.size());
  columns.lats.reserve(trajectory.points.size());
  for (const geo::TimedPoint& p : trajectory.points) {
    columns.timestamps.push_back(p.t);
    columns.lons.push_back(p.x);
    columns.lats.push_back(p.y);
  }
  std::string points_blob;
  if (!compress::EncodePoints(columns, &points_blob)) return false;

  const geo::DPFeatures features =
      geo::ExtractDPFeatures(trajectory.points, max_dp_features);
  std::string dp_blob;
  geo::EncodeDPFeatures(features, &dp_blob);

  PutLengthPrefixedSlice(out, trajectory.oid);
  PutLengthPrefixedSlice(out, trajectory.tid);
  const int64_t ts = trajectory.start_time();
  const int64_t te = trajectory.end_time();
  PutVarint64(out, static_cast<uint64_t>(ts));
  PutVarint64(out, static_cast<uint64_t>(te - ts));
  PutDouble(out, features.mbr.min_x);
  PutDouble(out, features.mbr.min_y);
  PutDouble(out, features.mbr.max_x);
  PutDouble(out, features.mbr.max_y);
  PutLengthPrefixedSlice(out, points_blob);
  PutLengthPrefixedSlice(out, dp_blob);
  return true;
}

bool DecodeRecordHeader(const Slice& value, RecordHeader* header) {
  Slice input = value;
  uint64_t ts, dur;
  if (!GetLengthPrefixedSlice(&input, &header->oid) ||
      !GetLengthPrefixedSlice(&input, &header->tid) ||
      !GetVarint64(&input, &ts) || !GetVarint64(&input, &dur) ||
      !GetDouble(&input, &header->mbr.min_x) ||
      !GetDouble(&input, &header->mbr.min_y) ||
      !GetDouble(&input, &header->mbr.max_x) ||
      !GetDouble(&input, &header->mbr.max_y) ||
      !GetLengthPrefixedSlice(&input, &header->points_blob) ||
      !GetLengthPrefixedSlice(&input, &header->dp_blob)) {
    return false;
  }
  header->ts = static_cast<int64_t>(ts);
  header->te = static_cast<int64_t>(ts + dur);
  return true;
}

bool DecodeRecordPoints(const RecordHeader& header,
                        std::vector<geo::TimedPoint>* points) {
  compress::PointReader reader(header.points_blob.data(),
                               header.points_blob.size(),
                               /*timestamps=*/true);
  if (!reader.ok()) return false;
  points->resize(reader.count());
  for (geo::TimedPoint& p : *points) {
    if (!reader.Next(&p.x, &p.y, &p.t)) {
      points->clear();
      return false;
    }
  }
  return true;
}

bool DecodeRecord(const Slice& value, traj::Trajectory* trajectory) {
  RecordHeader header;
  if (!DecodeRecordHeader(value, &header)) return false;
  trajectory->oid = header.oid.ToString();
  trajectory->tid = header.tid.ToString();
  return DecodeRecordPoints(header, &trajectory->points);
}

}  // namespace tman::core
