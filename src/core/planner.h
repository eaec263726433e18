#ifndef TMAN_CORE_PLANNER_H_
#define TMAN_CORE_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/options.h"
#include "geo/geometry.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "index/value_range.h"
#include "index/xz2_index.h"
#include "index/xzstar_index.h"
#include "index/xzt_index.h"
#include "kvstore/scan_filter.h"

namespace tman::core {

// Execution topology of a plan.
enum class PlanKind {
  kPrimaryScan,     // scan primary-table windows with an optional push-down
                    // filter chain
  kSecondaryFetch,  // scan a secondary table's windows, then fetch primary
                    // rows by the keys it names
};

// Which table the scan stage reads.
enum class PlanTable { kPrimary, kTRSecondary, kIDTSecondary };

// A fully planned query: the RBO/CBO decision, the key windows to scan, the
// push-down filter chain, and the cost-model numbers behind the choice.
// Produced by QueryPlanner from indexes and options alone — no storage is
// touched until an Executor runs the plan.
struct QueryPlan {
  PlanKind kind = PlanKind::kPrimaryScan;
  PlanTable scan_table = PlanTable::kPrimary;
  std::string name;  // plan string, e.g. "primary:st-fine"

  // Strictly increasing by start key and pairwise disjoint (shard-major,
  // then index value), as every index returns merged, sorted value ranges.
  // MultiScan's seek elision relies on this order.
  std::vector<cluster::KeyRange> windows;

  // Push-down filter chain. For kPrimaryScan it runs inside the region
  // scans; for kSecondaryFetch it is applied to the fetched primary rows,
  // inside the region tasks of the secondary scan.
  std::unique_ptr<kv::ScanFilter> filter;

  // Degraded-mode flag copied from QueryOptions::allow_degraded: when set,
  // the executor tolerates a strict subset of regions failing and marks
  // the stats degraded instead of failing the query.
  bool allow_degraded = false;

  // --- cost-model outputs (merged into QueryStats by the caller) ---
  uint64_t index_values = 0;      // index values the windows cover
  uint64_t elements_visited = 0;  // spatial elements inspected while planning
  uint64_t shapes_checked = 0;    // TShape shape tests while planning
  uint64_t estimated_fine_windows = 0;  // ST CBO: fine-plan window estimate
};

// Rule- and cost-based planner for the six paper queries (§V). Pure with
// respect to storage: it consults only the index structures, the index
// cache, and TManOptions, so plans are unit-testable without a cluster.
//
// RBO: pick the access path the primary index serves directly, falling back
// to secondary tables (TR for temporal, IDT for id-temporal). CBO: for the
// ST primary, choose between fine windows (tr values crossed with spatial
// ranges) and coarse tr-interval windows on the estimated window count.
class QueryPlanner {
 public:
  // `catalog` is the index cache, or null when TManOptions::use_index_cache
  // is false: TShape plans then cover whole elements. All pointers are
  // borrowed and must outlive the planner.
  QueryPlanner(const TManOptions* options, const index::TRIndex* tr,
               const index::XZTIndex* xzt, const index::TShapeIndex* tshape,
               const index::XZ2Index* xz2, const index::XZStarIndex* xzstar,
               const index::ShapeCatalogView* catalog);

  // TRQ (§V-B): primary temporal -> direct; ST primary -> tr prefix;
  // spatial primary -> TR secondary + fetch.
  Status PlanTemporalRange(int64_t ts, int64_t te, QueryPlan* plan) const;

  // SRQ (§V-C): requires a spatial primary index.
  Status PlanSpatialRange(const geo::MBR& rect, QueryPlan* plan) const;

  // STRQ (§V-E): CBO fine/coarse choice on the ST primary; otherwise the
  // primary dimension scans and the other dimension filters.
  Status PlanSpatioTemporalRange(const geo::MBR& rect, int64_t ts, int64_t te,
                                 QueryPlan* plan) const;

  // IDT (§V-F): IDT secondary + fetch.
  Status PlanIDTemporal(const std::string& oid, int64_t ts, int64_t te,
                        QueryPlan* plan) const;

  // Candidate retrieval for similarity queries (§V-G): spatial windows
  // around `query_mbr` expanded by `radius`, with `filter` pushed down.
  // Requires a spatial primary index.
  Status PlanSimilarityCandidates(const geo::MBR& query_mbr, double radius,
                                  std::unique_ptr<kv::ScanFilter> filter,
                                  const std::string& name,
                                  QueryPlan* plan) const;

  // CBO bound for ST fine plans: fine windows beyond this fall back to
  // coarse tr-interval windows.
  static constexpr uint64_t kFineWindowBudget = 4096;

 private:
  geo::MBR NormalizeRect(const geo::MBR& rect) const;
  std::vector<index::ValueRange> TemporalQueryRanges(int64_t ts,
                                                     int64_t te) const;
  // Records elements_visited/shapes_checked into *plan.
  std::vector<index::ValueRange> SpatialQueryRanges(const geo::MBR& norm_rect,
                                                    QueryPlan* plan) const;

  const TManOptions* options_;
  const index::TRIndex* tr_;
  const index::XZTIndex* xzt_;
  const index::TShapeIndex* tshape_;
  const index::XZ2Index* xz2_;
  const index::XZStarIndex* xzstar_;
  const index::ShapeCatalogView* catalog_;
};

}  // namespace tman::core

#endif  // TMAN_CORE_PLANNER_H_
