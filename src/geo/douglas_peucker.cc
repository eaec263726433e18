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

bool DecodeDPFeatures(const char* data, size_t size, DPFeatures* features) {
  Slice input(data, size);
  auto get_double = [&input](double* d) {
    if (input.size() < 8) return false;
    uint64_t bits = DecodeFixed64(input.data());
    input.remove_prefix(8);
    memcpy(d, &bits, sizeof(*d));
    return true;
  };
  if (!get_double(&features->mbr.min_x) || !get_double(&features->mbr.min_y) ||
      !get_double(&features->mbr.max_x) || !get_double(&features->mbr.max_y)) {
    return false;
  }
  uint32_t count;
  if (!GetVarint32(&input, &count)) return false;
  // A feature takes at least 51 bytes (six doubles and three varints);
  // reject a count the blob cannot hold before reserving for it.
  if (count > input.size() / 51) return false;
  features->features.clear();
  features->features.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    DPFeature f;
    uint64_t t;
    if (!get_double(&f.rep.x) || !get_double(&f.rep.y) ||
        !GetVarint64(&input, &t) || !get_double(&f.box.min_x) ||
        !get_double(&f.box.min_y) || !get_double(&f.box.max_x) ||
        !get_double(&f.box.max_y) || !GetVarint32(&input, &f.start) ||
        !GetVarint32(&input, &f.end)) {
      return false;
    }
    f.rep.t = static_cast<int64_t>(t);
    features->features.push_back(f);
  }
  return true;
}

}  // namespace tman::geo
