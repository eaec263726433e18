#include "baselines/similarity_baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/stopwatch.h"

namespace tman::baselines {

namespace {

// The bound for verifying a top-k candidate: the k-th distance once `best`
// (sorted ascending) holds k results, +infinity before that.
double KthDistance(const std::vector<SimilarityResult>& best, size_t k) {
  return best.size() >= k ? best[k - 1].distance
                          : std::numeric_limits<double>::infinity();
}

// Verifies `candidate_ids` against the query with an MBR lower-bound
// pre-check, returning those within `threshold`.
std::vector<SimilarityResult> VerifyThreshold(
    const std::vector<traj::Trajectory>& data,
    const std::vector<geo::MBR>& mbrs, const std::vector<uint32_t>& candidates,
    const traj::Trajectory& query, const geo::MBR& query_mbr,
    geo::SimilarityMeasure measure, double threshold,
    SimilarityStats* stats) {
  std::vector<SimilarityResult> results;
  for (uint32_t id : candidates) {
    if (stats != nullptr) stats->candidates++;
    if (geo::MBRLowerBound(mbrs[id], query_mbr) > threshold) continue;
    if (stats != nullptr) stats->exact_distance_computations++;
    const double d = geo::ExactDistanceWithin(measure, query.points,
                                              data[id].points, threshold);
    if (d <= threshold) {
      results.push_back(SimilarityResult{data[id].tid, d});
    }
  }
  std::sort(results.begin(), results.end(),
            [](const SimilarityResult& a, const SimilarityResult& b) {
              return a.distance < b.distance;
            });
  return results;
}

std::vector<SimilarityResult> VerifyTopK(
    const std::vector<traj::Trajectory>& data,
    const std::vector<geo::MBR>& mbrs, const std::vector<uint32_t>& candidates,
    const traj::Trajectory& query, const geo::MBR& query_mbr,
    geo::SimilarityMeasure measure, size_t k, double seed_threshold,
    SimilarityStats* stats) {
  std::vector<SimilarityResult> best;
  double bound = seed_threshold;
  for (uint32_t id : candidates) {
    if (data[id].tid == query.tid) continue;
    if (stats != nullptr) stats->candidates++;
    const double kth = best.size() >= k ? best[k - 1].distance : bound;
    if (geo::MBRLowerBound(mbrs[id], query_mbr) > kth) continue;
    if (stats != nullptr) stats->exact_distance_computations++;
    // The seed bound only prunes by MBR: until `best` holds k results,
    // every verified row enters it, so its distance must be exact.
    const double d = geo::ExactDistanceWithin(
        measure, query.points, data[id].points, KthDistance(best, k));
    if (best.size() >= k && d >= best[k - 1].distance) continue;
    SimilarityResult r{data[id].tid, d};
    best.insert(std::upper_bound(best.begin(), best.end(), r,
                                 [](const SimilarityResult& a,
                                    const SimilarityResult& b) {
                                   return a.distance < b.distance;
                                 }),
                r);
    if (best.size() > k) best.resize(k);
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// DFT

uint32_t DFT::PartitionOf(double lon, double lat) const {
  const uint32_t n = 1u << options_.grid_bits;
  auto idx = [n](double v, double lo, double hi) {
    double f = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
    uint32_t i = static_cast<uint32_t>(f * n);
    return i >= n ? n - 1 : i;
  };
  return idx(lat, options_.bounds.min_lat, options_.bounds.max_lat) * n +
         idx(lon, options_.bounds.min_lon, options_.bounds.max_lon);
}

std::vector<uint32_t> DFT::PartitionsOf(const geo::MBR& rect) const {
  const uint32_t n = 1u << options_.grid_bits;
  const uint32_t p0 = PartitionOf(rect.min_x, rect.min_y);
  const uint32_t p1 = PartitionOf(rect.max_x, rect.max_y);
  std::vector<uint32_t> result;
  for (uint32_t cy = p0 / n; cy <= p1 / n; cy++) {
    for (uint32_t cx = p0 % n; cx <= p1 % n; cx++) {
      result.push_back(cy * n + cx);
    }
  }
  return result;
}

void DFT::Load(const std::vector<traj::Trajectory>& trajectories) {
  data_ = trajectories;
  mbrs_.clear();
  partitions_.clear();
  for (uint32_t id = 0; id < data_.size(); id++) {
    mbrs_.push_back(data_[id].ComputeMBR());
    // Register the trajectory in every partition its segments cross
    // (approximated by sampling its points; segments are short).
    std::set<uint32_t> touched;
    for (const geo::TimedPoint& p : data_[id].points) {
      touched.insert(PartitionOf(p.x, p.y));
    }
    for (uint32_t part : touched) {
      partitions_[part].push_back(id);
    }
  }
}

std::vector<SimilarityResult> DFT::Threshold(const traj::Trajectory& query,
                                             geo::SimilarityMeasure measure,
                                             double threshold,
                                             SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);
  geo::MBR expanded = query_mbr;
  expanded.min_x -= threshold;
  expanded.min_y -= threshold;
  expanded.max_x += threshold;
  expanded.max_y += threshold;

  std::set<uint32_t> candidate_set;
  for (uint32_t part : PartitionsOf(expanded)) {
    auto it = partitions_.find(part);
    if (it == partitions_.end()) continue;
    candidate_set.insert(it->second.begin(), it->second.end());
  }
  std::vector<uint32_t> candidates(candidate_set.begin(),
                                   candidate_set.end());
  auto results = VerifyThreshold(data_, mbrs_, candidates, query, query_mbr,
                                 measure, threshold, stats);
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return results;
}

std::vector<SimilarityResult> DFT::TopK(const traj::Trajectory& query,
                                        geo::SimilarityMeasure measure,
                                        size_t k, SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);

  // Threshold seeding: take c*k trajectories from each intersecting
  // partition and use their exact distances as an upper bound. Wide-MBR
  // trajectories make this seed loose (the paper's critique).
  std::set<uint32_t> seed_set;
  for (uint32_t part : PartitionsOf(query_mbr)) {
    auto it = partitions_.find(part);
    if (it == partitions_.end()) continue;
    const size_t take =
        std::min(it->second.size(),
                 static_cast<size_t>(options_.c) * std::max<size_t>(k, 1));
    seed_set.insert(it->second.begin(), it->second.begin() + take);
  }
  double bound = 0;
  std::vector<double> seed_distances;
  for (uint32_t id : seed_set) {
    if (data_[id].tid == query.tid) continue;
    if (stats != nullptr) stats->exact_distance_computations++;
    seed_distances.push_back(
        geo::ExactDistance(measure, query.points, data_[id].points));
  }
  std::sort(seed_distances.begin(), seed_distances.end());
  if (seed_distances.empty()) {
    bound = std::max(options_.bounds.width(), options_.bounds.height());
  } else {
    bound = seed_distances[std::min(seed_distances.size() - 1, k - 1)];
  }

  // Candidate retrieval within the bound, then verification.
  geo::MBR expanded = query_mbr;
  expanded.min_x -= bound;
  expanded.min_y -= bound;
  expanded.max_x += bound;
  expanded.max_y += bound;
  std::set<uint32_t> candidate_set;
  for (uint32_t part : PartitionsOf(expanded)) {
    auto it = partitions_.find(part);
    if (it == partitions_.end()) continue;
    candidate_set.insert(it->second.begin(), it->second.end());
  }
  std::vector<uint32_t> candidates(candidate_set.begin(),
                                   candidate_set.end());
  auto results = VerifyTopK(data_, mbrs_, candidates, query, query_mbr,
                            measure, k, bound, stats);
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return results;
}

// ---------------------------------------------------------------------------
// DITA

uint32_t DITA::CellOf(double lon, double lat) const {
  const uint32_t n = 1u << options_.pivot_bits;
  auto idx = [n](double v, double lo, double hi) {
    double f = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
    uint32_t i = static_cast<uint32_t>(f * n);
    return i >= n ? n - 1 : i;
  };
  return idx(lat, options_.bounds.min_lat, options_.bounds.max_lat) * n +
         idx(lon, options_.bounds.min_lon, options_.bounds.max_lon);
}

uint64_t DITA::PivotKey(const geo::TimedPoint& first,
                        const geo::TimedPoint& last) const {
  return (static_cast<uint64_t>(CellOf(first.x, first.y)) << 32) |
         CellOf(last.x, last.y);
}

void DITA::Load(const std::vector<traj::Trajectory>& trajectories) {
  data_ = trajectories;
  mbrs_.clear();
  trie_.clear();
  for (uint32_t id = 0; id < data_.size(); id++) {
    mbrs_.push_back(data_[id].ComputeMBR());
    trie_[PivotKey(data_[id].points.front(), data_[id].points.back())]
        .push_back(id);
  }
}

std::vector<uint32_t> DITA::Probe(const traj::Trajectory& query,
                                  double bound) const {
  const uint32_t n = 1u << options_.pivot_bits;
  const double cell_w = options_.bounds.width() / n;
  const double cell_h = options_.bounds.height() / n;
  const int rx = static_cast<int>(std::ceil(bound / cell_w)) + 1;
  const int ry = static_cast<int>(std::ceil(bound / cell_h)) + 1;

  const uint32_t fc = CellOf(query.points.front().x, query.points.front().y);
  const uint32_t lc = CellOf(query.points.back().x, query.points.back().y);
  const int fx = static_cast<int>(fc % n), fy = static_cast<int>(fc / n);
  const int lx = static_cast<int>(lc % n), ly = static_cast<int>(lc / n);

  std::vector<uint32_t> candidates;
  for (int dy1 = -ry; dy1 <= ry; dy1++) {
    for (int dx1 = -rx; dx1 <= rx; dx1++) {
      const int cy1 = fy + dy1, cx1 = fx + dx1;
      if (cy1 < 0 || cx1 < 0 || cy1 >= static_cast<int>(n) ||
          cx1 >= static_cast<int>(n)) {
        continue;
      }
      for (int dy2 = -ry; dy2 <= ry; dy2++) {
        for (int dx2 = -rx; dx2 <= rx; dx2++) {
          const int cy2 = ly + dy2, cx2 = lx + dx2;
          if (cy2 < 0 || cx2 < 0 || cy2 >= static_cast<int>(n) ||
              cx2 >= static_cast<int>(n)) {
            continue;
          }
          const uint64_t key =
              (static_cast<uint64_t>(cy1 * n + cx1) << 32) |
              static_cast<uint32_t>(cy2 * n + cx2);
          auto it = trie_.find(key);
          if (it != trie_.end()) {
            candidates.insert(candidates.end(), it->second.begin(),
                              it->second.end());
          }
        }
      }
    }
  }
  return candidates;
}

namespace {

// Fréchet and DTW couplings match first-to-first and last-to-last, so a
// distance <= bound pins the candidate's endpoints within `bound` of the
// query's. Hausdorff does not align endpoints: a candidate endpoint is
// only guaranteed within bound of *some* query point, so the probe radius
// must additionally absorb the query's own extent.
double ProbeBound(const traj::Trajectory& query,
                  geo::SimilarityMeasure measure, double bound) {
  if (measure != geo::SimilarityMeasure::kHausdorff) return bound;
  const geo::MBR mbr = geo::ComputeMBR(query.points);
  return bound + std::hypot(mbr.width(), mbr.height());
}

}  // namespace

std::vector<SimilarityResult> DITA::Threshold(const traj::Trajectory& query,
                                              geo::SimilarityMeasure measure,
                                              double threshold,
                                              SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);
  auto candidates = Probe(query, ProbeBound(query, measure, threshold));
  auto results = VerifyThreshold(data_, mbrs_, candidates, query, query_mbr,
                                 measure, threshold, stats);
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return results;
}

std::vector<SimilarityResult> DITA::TopK(const traj::Trajectory& query,
                                         geo::SimilarityMeasure measure,
                                         size_t k, SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);
  double bound =
      std::max(options_.bounds.width(), options_.bounds.height()) / 256.0;
  std::vector<SimilarityResult> best;
  for (int round = 0; round < 12; round++) {
    auto candidates = Probe(query, ProbeBound(query, measure, bound));
    best = VerifyTopK(data_, mbrs_, candidates, query, query_mbr, measure, k,
                      bound, stats);
    if (best.size() >= k && best[k - 1].distance <= bound) break;
    bound *= 2;
  }
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return best;
}

// ---------------------------------------------------------------------------
// REPOSE

void REPOSE::Load(const std::vector<traj::Trajectory>& trajectories) {
  data_ = trajectories;
  mbrs_.clear();
  signatures_.clear();
  // Reference points on a regular grid over the dataset span (the paper's
  // point: a large span forces coarse references).
  references_.clear();
  const int side = static_cast<int>(
      std::round(std::sqrt(static_cast<double>(options_.num_reference_points))));
  for (int y = 0; y < side; y++) {
    for (int x = 0; x < side; x++) {
      references_.push_back(geo::Point{
          options_.bounds.min_lon +
              (x + 0.5) * options_.bounds.width() / side,
          options_.bounds.min_lat +
              (y + 0.5) * options_.bounds.height() / side});
    }
  }
  for (const traj::Trajectory& t : data_) {
    mbrs_.push_back(t.ComputeMBR());
    signatures_.push_back(SignatureOf(t));
  }
}

std::vector<int> REPOSE::SignatureOf(const traj::Trajectory& t) const {
  // Sample signature_length points evenly; each contributes its nearest
  // reference point id.
  std::vector<int> signature;
  const size_t n = t.points.size();
  for (int i = 0; i < options_.signature_length; i++) {
    const size_t idx = n <= 1 ? 0 : i * (n - 1) / (options_.signature_length - 1);
    const geo::Point p{t.points[idx].x, t.points[idx].y};
    int best = 0;
    double best_d = 1e300;
    for (size_t r = 0; r < references_.size(); r++) {
      const double d = geo::SquaredDistance(p, references_[r]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(r);
      }
    }
    signature.push_back(best);
  }
  return signature;
}

namespace {

// Heuristic proximity score of two signatures: the max positional
// reference distance, discounted by the cell radius. NOT a sound lower
// bound for any of the supported measures (none of them matches sample i
// to sample i), so it is used only to order verification — sound pruning
// is the MBR lower bound applied during verification.
double SignatureHeuristic(const std::vector<int>& a, const std::vector<int>& b,
                          const std::vector<geo::Point>& refs,
                          double cell_radius) {
  double score = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); i++) {
    const double d = geo::Distance(refs[a[i]], refs[b[i]]);
    score = std::max(score, d - 2 * cell_radius);
  }
  return std::max(0.0, score);
}

}  // namespace

std::vector<SimilarityResult> REPOSE::Threshold(const traj::Trajectory& query,
                                                geo::SimilarityMeasure measure,
                                                double threshold,
                                                SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);
  const std::vector<int> qsig = SignatureOf(query);
  const int side = static_cast<int>(std::round(
      std::sqrt(static_cast<double>(options_.num_reference_points))));
  const double cell_radius =
      std::max(options_.bounds.width(), options_.bounds.height()) / side;

  // The signature heuristic orders verification (likely matches first);
  // actual pruning uses the sound MBR lower bound inside VerifyThreshold.
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(data_.size());
  for (uint32_t id = 0; id < data_.size(); id++) {
    ranked.emplace_back(SignatureHeuristic(qsig, signatures_[id], references_,
                                           cell_radius),
                        id);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint32_t> candidates;
  candidates.reserve(ranked.size());
  for (const auto& [h, id] : ranked) {
    (void)h;
    candidates.push_back(id);
  }
  auto results = VerifyThreshold(data_, mbrs_, candidates, query, query_mbr,
                                 measure, threshold, stats);
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return results;
}

std::vector<SimilarityResult> REPOSE::TopK(const traj::Trajectory& query,
                                           geo::SimilarityMeasure measure,
                                           size_t k, SimilarityStats* stats) {
  Stopwatch total;
  const geo::MBR query_mbr = geo::ComputeMBR(query.points);
  const std::vector<int> qsig = SignatureOf(query);
  const int side = static_cast<int>(std::round(
      std::sqrt(static_cast<double>(options_.num_reference_points))));
  const double cell_radius =
      std::max(options_.bounds.width(), options_.bounds.height()) / side;

  // Rank candidates by the signature heuristic and verify in that order:
  // close trajectories verify early, which tightens the k-th bound and
  // lets the sound MBR lower bound prune the tail.
  std::vector<std::pair<double, uint32_t>> ranked;
  for (uint32_t id = 0; id < data_.size(); id++) {
    ranked.emplace_back(SignatureHeuristic(qsig, signatures_[id], references_,
                                           cell_radius),
                        id);
  }
  std::sort(ranked.begin(), ranked.end());

  std::vector<SimilarityResult> best;
  for (const auto& [heuristic, id] : ranked) {
    (void)heuristic;
    if (data_[id].tid == query.tid) continue;
    const double kth = KthDistance(best, k);
    if (stats != nullptr) stats->candidates++;
    if (geo::MBRLowerBound(mbrs_[id], query_mbr) > kth) continue;
    if (stats != nullptr) stats->exact_distance_computations++;
    const double d =
        geo::ExactDistanceWithin(measure, query.points, data_[id].points, kth);
    if (best.size() >= k && d >= best[k - 1].distance) continue;
    SimilarityResult r{data_[id].tid, d};
    best.insert(std::upper_bound(best.begin(), best.end(), r,
                                 [](const SimilarityResult& a,
                                    const SimilarityResult& b) {
                                   return a.distance < b.distance;
                                 }),
                r);
    if (best.size() > k) best.resize(k);
  }
  if (stats != nullptr) stats->execution_ms += total.ElapsedMillis();
  return best;
}

}  // namespace tman::baselines
