#include "query/query_planner.h"

#include <sstream>
#include <utility>
#include <vector>

#include "core/stopwatch.h"
#include "query/resolved_query_cache.h"

namespace one4all {

std::string QueryPlan::Describe() const {
  std::ostringstream out;
  out << "plan: " << spec.ToString() << "\n";
  out << "  1. cache-probe/resolve: " << slot_regions.size()
      << (slot_regions.size() == 1 ? " distinct region"
                                   : " distinct regions")
      << " (decompose + index retrieval on miss)\n";
  out << "  2. gather: " << rows.size()
      << (rows.size() == 1 ? " row" : " rows") << ", "
      << num_point_queries()
      << (path == EvalPath::kSatFastPath
              ? " epoch-pinned gathers (SAT four-corner plane reads + "
                "columnar residues, frames fetched once per plan)\n"
              : " epoch-pinned frame gathers (per-chunk frame memo)\n");
  if (spec.kind == QuerySpecKind::kTopK) {
    out << "  3. aggregate+rank: " << TimeAggregationName(spec.aggregation)
        << " per row, top-" << spec.top_k << " by value desc\n";
  } else if (spec.kind == QuerySpecKind::kTimeRange) {
    out << "  3. aggregate: " << TimeAggregationName(spec.aggregation)
        << " over " << spec.time.num_steps() << " timesteps\n";
  } else {
    out << "  3. aggregate: identity (point values)\n";
  }
  return out.str();
}

void QueryPlan::KeepRows(const std::vector<int>& keep) {
  std::vector<int> new_slot(slot_regions.size(), -1);
  std::vector<PlanRow> kept;
  kept.reserve(keep.size());
  for (const int r : keep) {
    kept.push_back(rows[static_cast<size_t>(r)]);
    new_slot[static_cast<size_t>(kept.back().region_slot)] = 0;
  }
  size_t next = 0;
  for (size_t s = 0; s < new_slot.size(); ++s) {
    if (new_slot[s] < 0) continue;
    new_slot[s] = static_cast<int>(next);
    slot_regions[next] = slot_regions[s];
    slot_fingerprints[next] = slot_fingerprints[s];
    ++next;
  }
  slot_regions.resize(next);
  slot_fingerprints.resize(next);
  for (PlanRow& row : kept) {
    row.region_slot = new_slot[static_cast<size_t>(row.region_slot)];
  }
  rows = std::move(kept);
}

QueryPlanner::QueryPlanner(const Hierarchy* hierarchy)
    : hierarchy_(hierarchy) {
  O4A_CHECK(hierarchy != nullptr);
}

Result<QueryPlan> QueryPlanner::Plan(QuerySpec spec) const {
  Stopwatch timer;
  O4A_RETURN_NOT_OK(spec.Validate(*hierarchy_));

  QueryPlan plan;
  plan.spec = std::move(spec);
  plan.path = plan.spec.eval_path;

  // Dedup identical region masks by content fingerprint so a grouped
  // query resolves (and probes the cache for) each distinct region once.
  // The table is open-addressed over slot indices, homed at fp.lo and
  // probed linearly against plan.slot_fingerprints; at most half full,
  // so a probe chain stays short, and it costs one allocation per plan
  // rather than one node per region.
  const size_t n = plan.spec.regions.size();
  size_t capacity = 2;
  while (capacity < 2 * n) capacity *= 2;
  const size_t mask = capacity - 1;
  std::vector<int> slot_table(capacity, -1);

  plan.rows.reserve(n);
  plan.slot_regions.reserve(n);
  plan.slot_fingerprints.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const RegionFingerprint fp =
        FingerprintRegion(plan.spec.regions[i], plan.spec.strategy);
    size_t probe = static_cast<size_t>(fp.lo) & mask;
    while (slot_table[probe] >= 0 &&
           !(plan.slot_fingerprints[static_cast<size_t>(
                 slot_table[probe])] == fp)) {
      probe = (probe + 1) & mask;
    }
    if (slot_table[probe] < 0) {
      slot_table[probe] = static_cast<int>(plan.slot_regions.size());
      plan.slot_regions.push_back(static_cast<int>(i));
      plan.slot_fingerprints.push_back(fp);
    }
    PlanRow row;
    row.region_slot = slot_table[probe];
    row.t0 = plan.spec.time.t0;
    row.t1 = plan.spec.time.t1;
    plan.rows.push_back(row);
  }
  plan.plan_micros = timer.ElapsedMicros();
  return plan;
}

}  // namespace one4all
