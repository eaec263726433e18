#ifndef TMAN_CORE_FILTERS_H_
#define TMAN_CORE_FILTERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/record.h"
#include "geo/geometry.h"
#include "geo/similarity.h"
#include "kvstore/scan_filter.h"

namespace tman::core {

// Push-down filters (paper §V-G(2)): evaluated inside the storage layer so
// only matching trajectory rows cross the storage boundary. All filters
// parse only the fixed row header unless a precise geometric test is
// required.

// Keeps rows whose time range intersects [ts, te].
class TemporalRangeFilter : public kv::ScanFilter {
 public:
  TemporalRangeFilter(int64_t ts, int64_t te) : ts_(ts), te_(te) {}

  bool Matches(const Slice& key, const Slice& value) const override;

 private:
  int64_t ts_;
  int64_t te_;
};

// Keeps rows whose trajectory actually visits `rect` (in data coordinates),
// in three stages that each read the row in place:
//   1. header MBR: disjoint -> reject; contained -> accept;
//   2. DP-feature boxes: reject when the boxes that miss `rect` span every
//      segment (geo::DPBoxesMissRect), which the exact test would reject;
//   3. stream lon/lat and accept at the first segment that meets `rect`.
// A row whose point column does not decode is kept, so the sink that
// decodes it reports the corruption.
class SpatialRangeFilter : public kv::ScanFilter {
 public:
  explicit SpatialRangeFilter(const geo::MBR& rect) : rect_(rect) {}

  bool Matches(const Slice& key, const Slice& value) const override;

 private:
  geo::MBR rect_;
};

// Similarity pre-filter (the third push-down filter of §V-G): keeps rows
// whose trajectory *could* be within `threshold` of the query, judged by
// the header's MBR bound (geo::HeaderLowerBound), then the DP-feature bound
// — all readable from the row header/feature column without decompressing
// points. Rows passing this filter still need exact verification by the
// caller.
class SimilarityFilter : public kv::ScanFilter {
 public:
  SimilarityFilter(geo::DPFeatures query_features, double threshold)
      : query_features_(std::move(query_features)), threshold_(threshold) {}

  bool Matches(const Slice& key, const Slice& value) const override;

 private:
  geo::DPFeatures query_features_;
  double threshold_;
};

// The pushed-down global filter of the expanding-radius top-k search. Keeps
// rows whose header bound (geo::HeaderLowerBound) is within `radius`,
// except the rows the previous round already delivered: those inside its
// windows whose bound is at or below its radius. Every round tests the same
// bound, so each row reaches the top-k sink at most once per query. The
// previous windows are part of the test because the spatial index prunes by
// the cells a trajectory visits, not its MBR: a row within the previous
// radius by its bound may first enter a later round's windows. Round 0
// passes no previous windows, so it keeps every row within `radius`,
// distance 0 included.
class MBRDistanceFilter : public kv::ScanFilter {
 public:
  // `previous_windows` are sorted by start key and disjoint (the planner's
  // window contract).
  MBRDistanceFilter(const geo::MBR& query_mbr, double radius,
                    double previous_radius = 0,
                    std::vector<cluster::KeyRange> previous_windows = {})
      : query_mbr_(query_mbr),
        radius_(radius),
        previous_radius_(previous_radius),
        previous_windows_(std::move(previous_windows)) {}

  bool Matches(const Slice& key, const Slice& value) const override;

 private:
  geo::MBR query_mbr_;
  double radius_;
  double previous_radius_;
  std::vector<cluster::KeyRange> previous_windows_;
};

// Counts matches inside the storage layer and rejects every row, so the
// scan ships nothing back — count queries are pure push-down aggregation.
class CountingFilter : public kv::ScanFilter {
 public:
  // Counts rows matching `inner`; a null inner counts every row. If
  // `owned` is supplied it keeps the inner filter alive.
  explicit CountingFilter(const kv::ScanFilter* inner,
                          std::unique_ptr<kv::ScanFilter> owned = nullptr)
      : inner_(inner), owned_(std::move(owned)) {}

  bool Matches(const Slice& key, const Slice& value) const override {
    if (inner_ == nullptr || inner_->Matches(key, value)) {
      count_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const kv::ScanFilter* inner_;
  std::unique_ptr<kv::ScanFilter> owned_;
  mutable std::atomic<uint64_t> count_{0};
};

// Conjunction of filters (the paper's filter chain).
class FilterChain : public kv::ScanFilter {
 public:
  void Add(std::unique_ptr<kv::ScanFilter> filter) {
    filters_.push_back(std::move(filter));
  }

  bool Matches(const Slice& key, const Slice& value) const override {
    for (const auto& f : filters_) {
      if (!f->Matches(key, value)) return false;
    }
    return true;
  }

  size_t size() const { return filters_.size(); }

 private:
  std::vector<std::unique_ptr<kv::ScanFilter>> filters_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_FILTERS_H_
