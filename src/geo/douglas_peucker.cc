#include "geo/douglas_peucker.h"

#include <algorithm>
#include <queue>

#include "common/coding.h"
#include "common/slice.h"

namespace tman::geo {

namespace {

// Finds the point of maximum deviation from the chord [start, end].
// Returns the index, or start if the span has no interior points.
uint32_t MaxDeviationPoint(const std::vector<TimedPoint>& points,
                           uint32_t start, uint32_t end, double* deviation) {
  *deviation = 0;
  uint32_t best = start;
  const Point a{points[start].x, points[start].y};
  const Point b{points[end].x, points[end].y};
  for (uint32_t i = start + 1; i < end; i++) {
    const double d = PointSegmentDistance(Point{points[i].x, points[i].y}, a, b);
    if (d > *deviation) {
      *deviation = d;
      best = i;
    }
  }
  return best;
}

MBR SpanMBR(const std::vector<TimedPoint>& points, uint32_t start,
            uint32_t end) {
  MBR mbr = MBR::Empty();
  for (uint32_t i = start; i <= end; i++) {
    mbr.Expand(Point{points[i].x, points[i].y});
  }
  return mbr;
}

struct Span {
  uint32_t start;
  uint32_t end;
  uint32_t split;
  double deviation;

  bool operator<(const Span& other) const {
    return deviation < other.deviation;  // max-heap on deviation
  }
};

}  // namespace

DPFeatures ExtractDPFeatures(const std::vector<TimedPoint>& points,
                             size_t max_features) {
  DPFeatures result;
  result.mbr = ComputeMBR(points);
  if (points.empty()) return result;
  if (max_features == 0) max_features = 1;

  const uint32_t last = static_cast<uint32_t>(points.size() - 1);

  // Root feature: whole trajectory, represented by its deepest point.
  double dev;
  uint32_t split = MaxDeviationPoint(points, 0, last, &dev);
  result.features.push_back(
      DPFeature{points[split], result.mbr, 0, last});

  std::priority_queue<Span> spans;
  if (split > 0 && split < last) {
    spans.push(Span{0, last, split, dev});
  }

  while (result.features.size() < max_features && !spans.empty()) {
    const Span span = spans.top();
    spans.pop();
    // Split into [start, split] and [split, end].
    const uint32_t halves[2][2] = {{span.start, span.split},
                                   {span.split, span.end}};
    for (const auto& half : halves) {
      if (result.features.size() >= max_features) break;
      const uint32_t s = half[0];
      const uint32_t e = half[1];
      double d;
      const uint32_t m = MaxDeviationPoint(points, s, e, &d);
      result.features.push_back(DPFeature{points[m], SpanMBR(points, s, e),
                                          s, e});
      if (m > s && m < e) {
        spans.push(Span{s, e, m, d});
      }
    }
  }
  return result;
}

std::vector<uint32_t> DouglasPeucker(const std::vector<TimedPoint>& points,
                                     double epsilon) {
  std::vector<uint32_t> keep;
  if (points.empty()) return keep;
  if (points.size() <= 2) {
    for (uint32_t i = 0; i < points.size(); i++) keep.push_back(i);
    return keep;
  }
  std::vector<bool> retained(points.size(), false);
  retained.front() = retained.back() = true;

  // Iterative stack-based DP.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  stack.emplace_back(0, static_cast<uint32_t>(points.size() - 1));
  while (!stack.empty()) {
    auto [start, end] = stack.back();
    stack.pop_back();
    if (end <= start + 1) continue;
    double dev;
    const uint32_t split = MaxDeviationPoint(points, start, end, &dev);
    if (dev > epsilon) {
      retained[split] = true;
      stack.emplace_back(start, split);
      stack.emplace_back(split, end);
    }
  }
  for (uint32_t i = 0; i < retained.size(); i++) {
    if (retained[i]) keep.push_back(i);
  }
  return keep;
}

void EncodeDPFeatures(const DPFeatures& features, std::string* out) {
  auto put_double = [out](double d) {
    uint64_t bits;
    memcpy(&bits, &d, sizeof(bits));
    PutFixed64(out, bits);
  };
  put_double(features.mbr.min_x);
  put_double(features.mbr.min_y);
  put_double(features.mbr.max_x);
  put_double(features.mbr.max_y);
  PutVarint32(out, static_cast<uint32_t>(features.features.size()));
  for (const DPFeature& f : features.features) {
    put_double(f.rep.x);
    put_double(f.rep.y);
    PutVarint64(out, static_cast<uint64_t>(f.rep.t));
    put_double(f.box.min_x);
    put_double(f.box.min_y);
    put_double(f.box.max_x);
    put_double(f.box.max_y);
    PutVarint32(out, f.start);
    PutVarint32(out, f.end);
  }
}

namespace {

bool GetDouble(Slice* input, double* d) {
  if (input->size() < 8) return false;
  const uint64_t bits = DecodeFixed64(input->data());
  input->remove_prefix(8);
  memcpy(d, &bits, sizeof(*d));
  return true;
}

bool GetBox(Slice* input, MBR* box) {
  return GetDouble(input, &box->min_x) && GetDouble(input, &box->min_y) &&
         GetDouble(input, &box->max_x) && GetDouble(input, &box->max_y);
}

// A feature takes at least 51 bytes: six doubles and three varints.
constexpr size_t kMinFeatureBytes = 51;

}  // namespace

DPFeatureReader::DPFeatureReader(const char* data, size_t size)
    : input_(data, size) {
  ok_ = GetBox(&input_, &mbr_) && GetVarint32(&input_, &count_) &&
        count_ <= input_.size() / kMinFeatureBytes;
}

bool DPFeatureReader::Next(DPFeature* feature) {
  if (!ok_ || read_ == count_) return false;
  uint64_t t = 0;
  if (!GetDouble(&input_, &feature->rep.x) ||
      !GetDouble(&input_, &feature->rep.y) || !GetVarint64(&input_, &t) ||
      !GetBox(&input_, &feature->box) ||
      !GetVarint32(&input_, &feature->start) ||
      !GetVarint32(&input_, &feature->end)) {
    return false;
  }
  feature->rep.t = static_cast<int64_t>(t);
  read_++;
  return true;
}

bool DecodeDPFeatures(const char* data, size_t size, DPFeatures* features) {
  DPFeatureReader reader(data, size);
  if (!reader.ok()) return false;
  features->mbr = reader.mbr();
  features->features.resize(reader.count());
  for (DPFeature& f : features->features) {
    if (!reader.Next(&f)) return false;
  }
  return true;
}

bool DPBoxesMissRect(const char* column, size_t size, uint32_t num_points,
                     const MBR& rect) {
  if (num_points == 0) return false;
  DPFeatureReader reader(column, size);
  if (!reader.ok()) return false;
  // The spans of the missing boxes, up to a fixed number; dropping spans
  // past it can only leave a gap, never hide one.
  constexpr uint32_t kMaxSpans = 32;
  uint32_t starts[kMaxSpans] = {}, ends[kMaxSpans] = {};
  uint32_t spans = 0;
  DPFeature f{};
  for (uint32_t i = 0; i < reader.count(); i++) {
    if (!reader.Next(&f)) return false;
    if (spans < kMaxSpans && !f.box.Intersects(rect)) {
      starts[spans] = f.start;
      ends[spans] = f.end;
      spans++;
    }
  }
  // Sweep: the missing spans cover point 0 and every segment before point
  // `reach`. Spans come in split-tree order, not by start, so sweep until
  // no span extends the reach.
  const int64_t last = static_cast<int64_t>(num_points) - 1;
  int64_t reach = -1;  // nothing covered yet, not even point 0
  for (bool grew = true; grew && reach < last;) {
    grew = false;
    for (uint32_t i = 0; i < spans; i++) {
      if (starts[i] <= std::max<int64_t>(reach, 0) && ends[i] > reach) {
        reach = ends[i];
        grew = true;
      }
    }
  }
  return reach >= last;
}

}  // namespace tman::geo
