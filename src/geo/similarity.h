#ifndef TMAN_GEO_SIMILARITY_H_
#define TMAN_GEO_SIMILARITY_H_

#include <vector>

#include "geo/douglas_peucker.h"
#include "geo/geometry.h"

namespace tman::geo {

enum class SimilarityMeasure {
  kFrechet,    // discrete Fréchet distance
  kDTW,        // dynamic time warping (sum of matched distances)
  kHausdorff,  // symmetric Hausdorff distance
};

// Exact distances (O(n*m) dynamic programming / scans) in coordinate units.
double DiscreteFrechet(const std::vector<TimedPoint>& a,
                       const std::vector<TimedPoint>& b);
double DTWDistance(const std::vector<TimedPoint>& a,
                   const std::vector<TimedPoint>& b);
double HausdorffDistance(const std::vector<TimedPoint>& a,
                         const std::vector<TimedPoint>& b);

double ExactDistance(SimilarityMeasure measure,
                     const std::vector<TimedPoint>& a,
                     const std::vector<TimedPoint>& b);

// Bounded exact distance for verification against a known cutoff: returns
// ExactDistance(measure, a, b), bit for bit, when that is <= `bound`, and
// otherwise some value > `bound`. Fréchet stops as soon as the bound
// decides the answer; DTW and Hausdorff compute the distance in full.
double ExactDistanceWithin(SimilarityMeasure measure,
                           const std::vector<TimedPoint>& a,
                           const std::vector<TimedPoint>& b, double bound);

// Cheap lower bound on the distance between two trajectories given only
// their MBRs: any matching must bridge the rectangle gap. Valid for all
// three measures (for DTW it bounds the per-step cost, hence the total from
// below as well since DTW sums >= max step >= gap).
double MBRLowerBound(const MBR& a, const MBR& b);

// Coverage bound: the largest amount by which one MBR sticks out of the
// other on any of the four sides, or 0 if neither does. All three measures
// match every point of each trajectory to a point of the other, so each
// side of one trajectory's MBR lies within the distance of the same side
// of the other's. The terms are differences of coordinates, and rounding
// is monotone, so the bound never exceeds the computed distance either.
double MBRCoverBound(const MBR& a, const MBR& b);

// The bound from the two MBRs alone, all a row header holds: the larger of
// MBRLowerBound and MBRCoverBound. Every similarity row filter tests this.
double HeaderLowerBound(const MBR& a, const MBR& b);

// Tighter lower bound from DP-features (TraSS local filter): the largest of
// the MBR gap, the distance from each query representative point to the
// candidate's MBR, and the distance from each candidate representative
// point to the query's MBR. Each representative is a real trajectory point,
// and every measure matches it to a point inside the other trajectory's
// MBR, so the bound never exceeds the true Fréchet, DTW or Hausdorff
// distance. The feature boxes play no part.
double DPFeatureLowerBound(const DPFeatures& query,
                           const DPFeatures& candidate);

// DPFeatureLowerBound against a stored `features` column, read in place
// (DPFeatureReader): bit-identical to the bound over the decoded column.
// False when DecodeDPFeatures would reject the column; the candidate cannot
// be bounded then.
bool DPFeatureLowerBound(const DPFeatures& query, const char* column,
                         size_t size, double* bound);

}  // namespace tman::geo

#endif  // TMAN_GEO_SIMILARITY_H_
