#ifndef TMAN_CORE_RECORD_H_
#define TMAN_CORE_RECORD_H_

#include <string>
#include <vector>

#include "common/slice.h"
#include "geo/douglas_peucker.h"
#include "geo/geometry.h"
#include "traj/trajectory.h"

namespace tman::core {

// Primary-table row value (paper Fig. 11): the *whole* trajectory in one
// row — oid, tid, time range, MBR, compressed points, DP-features. The
// fixed-layout header lets push-down filters test temporal/MBR predicates
// without decompressing the point column.
//
// Layout:
//   varstr oid | varstr tid | varint64 ts | varint64 (te-ts)
//   | fixed64 mbr.min_x .. mbr.max_y | varstr points_blob | varstr dp_blob
struct RecordHeader {
  Slice oid;
  Slice tid;
  int64_t ts = 0;
  int64_t te = 0;
  geo::MBR mbr;
  Slice points_blob;
  Slice dp_blob;
};

// Serializes a trajectory (with `max_dp_features` DP features) to *out.
// Returns false on inconsistent input.
bool EncodeRecord(const traj::Trajectory& trajectory, size_t max_dp_features,
                  std::string* out);

// Parses the header without decompressing columns. Slices point into
// `value`, which must outlive the header.
bool DecodeRecordHeader(const Slice& value, RecordHeader* header);

// Decompresses the point column of a parsed header straight into *points,
// reusing its capacity; empties it on a malformed column.
bool DecodeRecordPoints(const RecordHeader& header,
                        std::vector<geo::TimedPoint>* points);

// Full decode into a Trajectory.
bool DecodeRecord(const Slice& value, traj::Trajectory* trajectory);

}  // namespace tman::core

#endif  // TMAN_CORE_RECORD_H_
