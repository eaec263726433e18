#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/filters.h"
#include "core/rowkey.h"

namespace tman::core {

QueryPlanner::QueryPlanner(const TManOptions* options,
                           const index::TRIndex* tr, const index::XZTIndex* xzt,
                           const index::TShapeIndex* tshape,
                           const index::XZ2Index* xz2,
                           const index::XZStarIndex* xzstar,
                           const index::ShapeCatalogView* catalog)
    : options_(options),
      tr_(tr),
      xzt_(xzt),
      tshape_(tshape),
      xz2_(xz2),
      xzstar_(xzstar),
      catalog_(catalog) {}

geo::MBR QueryPlanner::NormalizeRect(const geo::MBR& rect) const {
  geo::MBR norm = options_->bounds.Normalize(rect);
  norm.min_x = std::clamp(norm.min_x, 0.0, 1.0);
  norm.min_y = std::clamp(norm.min_y, 0.0, 1.0);
  norm.max_x = std::clamp(norm.max_x, 0.0, 1.0);
  norm.max_y = std::clamp(norm.max_y, 0.0, 1.0);
  return norm;
}

std::vector<index::ValueRange> QueryPlanner::TemporalQueryRanges(
    int64_t ts, int64_t te) const {
  return options_->temporal == TemporalIndexKind::kTR
             ? tr_->QueryRanges(ts, te)
             : xzt_->QueryRanges(ts, te);
}

std::vector<index::ValueRange> QueryPlanner::SpatialQueryRanges(
    const geo::MBR& norm_rect, QueryPlan* plan) const {
  switch (options_->spatial) {
    case SpatialIndexKind::kXZ2: {
      index::XZ2Index::QueryStats qs;
      auto ranges = xz2_->QueryRanges(norm_rect, &qs);
      plan->elements_visited += qs.elements_visited;
      return ranges;
    }
    case SpatialIndexKind::kXZStar: {
      index::TShapeIndex::QueryStats qs;
      auto ranges = xzstar_->QueryRanges(norm_rect, &qs);
      plan->elements_visited += qs.elements_visited;
      plan->shapes_checked += qs.shapes_checked;
      return ranges;
    }
    case SpatialIndexKind::kTShape:
      break;
  }
  index::TShapeIndex::QueryStats qs;
  const std::vector<index::ValueRange> ranges =
      tshape_->QueryRanges(norm_rect, catalog_, &qs);
  plan->elements_visited += qs.elements_visited;
  plan->shapes_checked += qs.shapes_checked;
  return ranges;
}

Status QueryPlanner::PlanTemporalRange(int64_t ts, int64_t te,
                                       QueryPlan* plan) const {
  const std::vector<index::ValueRange> ranges = TemporalQueryRanges(ts, te);
  plan->index_values += index::TotalCount(ranges);
  plan->filter = std::make_unique<TemporalRangeFilter>(ts, te);

  switch (options_->primary) {
    case PrimaryIndexKind::kTemporal:
      // RBO: the primary index serves the query directly.
      plan->kind = PlanKind::kPrimaryScan;
      plan->scan_table = PlanTable::kPrimary;
      plan->name = "primary:temporal";
      plan->windows = WindowsForRanges(ranges, options_->num_shards);
      break;
    case PrimaryIndexKind::kST:
      // The tr value is the key prefix, so tr intervals are contiguous key
      // windows over the ST primary as well.
      plan->kind = PlanKind::kPrimaryScan;
      plan->scan_table = PlanTable::kPrimary;
      plan->name = "primary:st-prefix";
      plan->windows = WindowsForTRIntervals(ranges, options_->num_shards);
      break;
    case PrimaryIndexKind::kSpatial:
      // Secondary TR table, then fetch from the primary (§V-G(1)).
      plan->kind = PlanKind::kSecondaryFetch;
      plan->scan_table = PlanTable::kTRSecondary;
      plan->name = "secondary:tr";
      plan->windows = WindowsForRanges(ranges, options_->num_shards);
      break;
  }
  return Status::OK();
}

Status QueryPlanner::PlanSpatialRange(const geo::MBR& rect,
                                      QueryPlan* plan) const {
  if (options_->primary != PrimaryIndexKind::kSpatial) {
    return Status::NotSupported(
        "spatial range query requires a spatial primary index");
  }
  const geo::MBR norm_rect = NormalizeRect(rect);
  const std::vector<index::ValueRange> ranges =
      SpatialQueryRanges(norm_rect, plan);
  plan->kind = PlanKind::kPrimaryScan;
  plan->scan_table = PlanTable::kPrimary;
  plan->name = "primary:spatial";
  plan->index_values += ranges.size();
  plan->windows = WindowsForRanges(ranges, options_->num_shards);
  plan->filter = std::make_unique<SpatialRangeFilter>(rect);
  return Status::OK();
}

Status QueryPlanner::PlanSpatioTemporalRange(const geo::MBR& rect, int64_t ts,
                                             int64_t te,
                                             QueryPlan* plan) const {
  auto chain = std::make_unique<FilterChain>();
  chain->Add(std::make_unique<TemporalRangeFilter>(ts, te));
  chain->Add(std::make_unique<SpatialRangeFilter>(rect));
  plan->kind = PlanKind::kPrimaryScan;
  plan->scan_table = PlanTable::kPrimary;
  plan->filter = std::move(chain);

  const std::vector<index::ValueRange> tr_ranges = TemporalQueryRanges(ts, te);
  if (options_->primary == PrimaryIndexKind::kST) {
    const geo::MBR norm_rect = NormalizeRect(rect);
    const std::vector<index::ValueRange> sp_ranges =
        SpatialQueryRanges(norm_rect, plan);
    const uint64_t tr_count = index::TotalCount(tr_ranges);
    const uint64_t fine_windows = tr_count * sp_ranges.size() *
                                  static_cast<uint64_t>(options_->num_shards);
    plan->estimated_fine_windows = fine_windows;
    if (fine_windows <= kFineWindowBudget) {
      // CBO plan A: one window batch per discrete tr value, crossed with
      // the spatial ranges (§V-E).
      plan->name = "primary:st-fine";
      plan->windows =
          WindowsForSTRanges(tr_ranges, sp_ranges, options_->num_shards);
    } else {
      // CBO plan B: coarse tr-interval windows; spatial predicate pushed
      // down only as a filter.
      plan->name = "primary:st-coarse";
      plan->windows = WindowsForTRIntervals(tr_ranges, options_->num_shards);
    }
  } else if (options_->primary == PrimaryIndexKind::kSpatial) {
    plan->name = "primary:spatial+tfilter";
    const geo::MBR norm_rect = NormalizeRect(rect);
    const std::vector<index::ValueRange> sp_ranges =
        SpatialQueryRanges(norm_rect, plan);
    plan->windows = WindowsForRanges(sp_ranges, options_->num_shards);
  } else {
    plan->name = "primary:temporal+sfilter";
    plan->windows = WindowsForRanges(tr_ranges, options_->num_shards);
  }
  return Status::OK();
}

Status QueryPlanner::PlanIDTemporal(const std::string& oid, int64_t ts,
                                    int64_t te, QueryPlan* plan) const {
  const std::vector<index::ValueRange> tr_ranges = TemporalQueryRanges(ts, te);
  plan->kind = PlanKind::kSecondaryFetch;
  plan->scan_table = PlanTable::kIDTSecondary;
  plan->name = "secondary:idt";
  plan->windows = WindowsForIDT(oid, tr_ranges, options_->num_shards);
  plan->filter = std::make_unique<TemporalRangeFilter>(ts, te);
  return Status::OK();
}

Status QueryPlanner::PlanSimilarityCandidates(
    const geo::MBR& query_mbr, double radius,
    std::unique_ptr<kv::ScanFilter> filter, const std::string& name,
    QueryPlan* plan) const {
  if (options_->primary != PrimaryIndexKind::kSpatial) {
    return Status::NotSupported(
        "similarity queries require a spatial primary index");
  }
  std::vector<index::ValueRange> ranges;
  if (options_->spatial == SpatialIndexKind::kTShape) {
    // The coverage walk (DESIGN.md "Similarity planning"). Normalizing
    // rounds on the scale of the data coordinates, so the radius grows by
    // far more than that rounding: the plan may only err wide.
    const traj::SpatialBounds& bounds = options_->bounds;
    const double scale = std::max(
        {std::abs(query_mbr.min_x), std::abs(query_mbr.max_x),
         std::abs(query_mbr.min_y), std::abs(query_mbr.max_y),
         std::abs(bounds.min_lon), std::abs(bounds.max_lon),
         std::abs(bounds.min_lat), std::abs(bounds.max_lat)});
    const double reach = radius + 1e-12 * (radius + scale);
    index::TShapeIndex::QueryStats qs;
    ranges = tshape_->CoverageRanges(bounds.Normalize(query_mbr),
                                     reach / bounds.width(),
                                     reach / bounds.height(), catalog_, &qs);
    plan->elements_visited += qs.elements_visited;
    plan->shapes_checked += qs.shapes_checked;
  } else {
    // XZ2 and XZ*: spatial windows of the MBR expanded per axis (the
    // radius is in data coordinates).
    ranges = SpatialQueryRanges(NormalizeRect(query_mbr.Expanded(radius)),
                                plan);
  }
  plan->kind = PlanKind::kPrimaryScan;
  plan->scan_table = PlanTable::kPrimary;
  plan->name = name;
  plan->windows = WindowsForRanges(ranges, options_->num_shards);
  plan->filter = std::move(filter);
  return Status::OK();
}

}  // namespace tman::core
