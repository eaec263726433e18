#include "geo/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tman::geo {

namespace {

double PointToRectDistance(const Point& p, const MBR& r) {
  const double dx = std::max({0.0, r.min_x - p.x, p.x - r.max_x});
  const double dy = std::max({0.0, r.min_y - p.y, p.y - r.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

double DiscreteFrechet(const std::vector<TimedPoint>& a,
                       const std::vector<TimedPoint>& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 1e300;

  // Rolling 1-D dynamic program over the coupling matrix.
  std::vector<double> prev(m), curr(m);
  auto d = [&](size_t i, size_t j) {
    return Distance(Point{a[i].x, a[i].y}, Point{b[j].x, b[j].y});
  };
  prev[0] = d(0, 0);
  for (size_t j = 1; j < m; j++) prev[j] = std::max(prev[j - 1], d(0, j));
  for (size_t i = 1; i < n; i++) {
    curr[0] = std::max(prev[0], d(i, 0));
    for (size_t j = 1; j < m; j++) {
      const double reach = std::min({prev[j], prev[j - 1], curr[j - 1]});
      curr[j] = std::max(reach, d(i, j));
    }
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

double DTWDistance(const std::vector<TimedPoint>& a,
                   const std::vector<TimedPoint>& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 1e300;

  std::vector<double> prev(m), curr(m);
  auto d = [&](size_t i, size_t j) {
    return Distance(Point{a[i].x, a[i].y}, Point{b[j].x, b[j].y});
  };
  prev[0] = d(0, 0);
  for (size_t j = 1; j < m; j++) prev[j] = prev[j - 1] + d(0, j);
  for (size_t i = 1; i < n; i++) {
    curr[0] = prev[0] + d(i, 0);
    for (size_t j = 1; j < m; j++) {
      curr[j] = std::min({prev[j], prev[j - 1], curr[j - 1]}) + d(i, j);
    }
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

double HausdorffDistance(const std::vector<TimedPoint>& a,
                         const std::vector<TimedPoint>& b) {
  if (a.empty() || b.empty()) return 1e300;
  auto directed = [](const std::vector<TimedPoint>& from,
                     const std::vector<TimedPoint>& to) {
    double result = 0;
    for (const TimedPoint& p : from) {
      double best = 1e300;
      for (const TimedPoint& q : to) {
        const double d =
            Distance(Point{p.x, p.y}, Point{q.x, q.y});
        if (d < best) best = d;
        if (best == 0) break;
      }
      result = std::max(result, best);
    }
    return result;
  };
  return std::max(directed(a, b), directed(b, a));
}

double ExactDistance(SimilarityMeasure measure,
                     const std::vector<TimedPoint>& a,
                     const std::vector<TimedPoint>& b) {
  switch (measure) {
    case SimilarityMeasure::kFrechet:
      return DiscreteFrechet(a, b);
    case SimilarityMeasure::kDTW:
      return DTWDistance(a, b);
    case SimilarityMeasure::kHausdorff:
      return HausdorffDistance(a, b);
  }
  return 1e300;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The largest double whose square root is <= `bound`. Since sqrt is
// monotone, a squared distance s has sqrt(s) <= bound exactly when s is at
// most this; bound * bound alone can round below the square of a distance
// that equals `bound`.
double SquaredBound(double bound) {
  if (bound < 0) return -1;  // every squared distance exceeds it
  double squared = bound * bound;
  while (std::sqrt(squared) > bound) {
    squared = std::nextafter(squared, 0.0);
  }
  for (double up = std::nextafter(squared, kInf);
       up != kInf && std::sqrt(up) <= bound;
       up = std::nextafter(squared, kInf)) {
    squared = up;
  }
  return squared;
}

// DiscreteFrechet on squared point distances with one sqrt at the end;
// min and max commute with sqrt, so the result is bit-identical. Returns
// +infinity as soon as the squared bound rules the distance out.
double FrechetWithin(const std::vector<TimedPoint>& a,
                     const std::vector<TimedPoint>& b, double bound) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 1e300;

  const double limit = SquaredBound(bound);
  auto d2 = [&](size_t i, size_t j) {
    return SquaredDistance(Point{a[i].x, a[i].y}, Point{b[j].x, b[j].y});
  };
  // Every coupling matches the first points and the last points.
  const double first = d2(0, 0);
  if (first > limit || d2(n - 1, m - 1) > limit) return kInf;

  std::vector<double> prev(m), curr(m);
  prev[0] = first;
  for (size_t j = 1; j < m; j++) prev[j] = std::max(prev[j - 1], d2(0, j));
  for (size_t i = 1; i < n; i++) {
    curr[0] = std::max(prev[0], d2(i, 0));
    double row_min = curr[0];
    for (size_t j = 1; j < m; j++) {
      const double reach = std::min({prev[j], prev[j - 1], curr[j - 1]});
      curr[j] = std::max(reach, d2(i, j));
      row_min = std::min(row_min, curr[j]);
    }
    // Every coupling crosses row i, so the distance is at least row_min.
    if (row_min > limit) return kInf;
    std::swap(prev, curr);
  }
  return std::sqrt(prev[m - 1]);
}

}  // namespace

double ExactDistanceWithin(SimilarityMeasure measure,
                           const std::vector<TimedPoint>& a,
                           const std::vector<TimedPoint>& b, double bound) {
  if (measure == SimilarityMeasure::kFrechet) {
    return FrechetWithin(a, b, bound);
  }
  return ExactDistance(measure, a, b);
}

double MBRLowerBound(const MBR& a, const MBR& b) {
  return std::sqrt(a.MinSquaredDistance(b));
}

namespace {

// The bound's terms that need only the candidate's MBR, in
// DPFeatureLowerBound's order (max is not commutative over NaN).
double QuerySideLowerBound(const DPFeatures& query, const MBR& candidate) {
  double lb = MBRLowerBound(query.mbr, candidate);
  for (const DPFeature& f : query.features) {
    lb = std::max(lb, PointToRectDistance(Point{f.rep.x, f.rep.y}, candidate));
  }
  return lb;
}

}  // namespace

double DPFeatureLowerBound(const DPFeatures& query,
                           const DPFeatures& candidate) {
  // Every representative point is a real trajectory point; its match must
  // lie inside the other trajectory's MBR, so the point-to-MBR distance is
  // a valid lower bound in both directions.
  double lb = QuerySideLowerBound(query, candidate.mbr);
  for (const DPFeature& f : candidate.features) {
    lb = std::max(lb,
                  PointToRectDistance(Point{f.rep.x, f.rep.y}, query.mbr));
  }
  return lb;
}

bool DPFeatureLowerBound(const DPFeatures& query, const char* column,
                         size_t size, double* bound) {
  DPFeatureReader reader(column, size);
  if (!reader.ok()) return false;
  double lb = QuerySideLowerBound(query, reader.mbr());
  DPFeature f{};
  for (uint32_t i = 0; i < reader.count(); i++) {
    if (!reader.Next(&f)) return false;
    lb = std::max(lb,
                  PointToRectDistance(Point{f.rep.x, f.rep.y}, query.mbr));
  }
  *bound = lb;
  return true;
}

}  // namespace tman::geo
