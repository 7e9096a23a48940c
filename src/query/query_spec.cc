#include "query/query_spec.h"

#include <limits>
#include <sstream>

namespace one4all {

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kDirect: return "Direct";
    case QueryStrategy::kUnion: return "Union";
    case QueryStrategy::kUnionSubtraction: return "Union & Subtraction";
  }
  return "?";
}

const char* EvalPathName(EvalPath path) {
  switch (path) {
    case EvalPath::kExactCellLoop: return "exact-cell-loop";
    case EvalPath::kSatFastPath: return "sat-fast-path";
  }
  return "?";
}

const char* QuerySpecKindName(QuerySpecKind kind) {
  switch (kind) {
    case QuerySpecKind::kPointInTime: return "PointInTime";
    case QuerySpecKind::kTimeRange: return "TimeRange";
    case QuerySpecKind::kMultiRegion: return "MultiRegion";
    case QuerySpecKind::kTopK: return "TopK";
  }
  return "?";
}

const char* TimeAggregationName(TimeAggregation agg) {
  switch (agg) {
    case TimeAggregation::kSum: return "sum";
    case TimeAggregation::kMean: return "mean";
    case TimeAggregation::kMax: return "max";
  }
  return "?";
}

QuerySpec QuerySpec::PointInTime(GridMask region, int64_t t,
                                 QueryStrategy strategy) {
  QuerySpec spec;
  spec.kind = QuerySpecKind::kPointInTime;
  spec.regions.push_back(std::move(region));
  spec.time = TimeSelector::At(t);
  spec.strategy = strategy;
  return spec;
}

QuerySpec QuerySpec::TimeRange(GridMask region, int64_t t0, int64_t t1,
                               TimeAggregation aggregation,
                               QueryStrategy strategy) {
  QuerySpec spec;
  spec.kind = QuerySpecKind::kTimeRange;
  spec.regions.push_back(std::move(region));
  spec.time = TimeSelector::Range(t0, t1);
  spec.aggregation = aggregation;
  spec.strategy = strategy;
  return spec;
}

QuerySpec QuerySpec::MultiRegion(std::vector<GridMask> regions, int64_t t,
                                 QueryStrategy strategy) {
  QuerySpec spec;
  spec.kind = QuerySpecKind::kMultiRegion;
  spec.regions = std::move(regions);
  spec.time = TimeSelector::At(t);
  spec.strategy = strategy;
  return spec;
}

QuerySpec QuerySpec::TopK(std::vector<GridMask> regions, int64_t t, int k,
                          QueryStrategy strategy) {
  QuerySpec spec;
  spec.kind = QuerySpecKind::kTopK;
  spec.regions = std::move(regions);
  spec.time = TimeSelector::At(t);
  spec.top_k = k;
  spec.strategy = strategy;
  return spec;
}

Status QuerySpec::Validate(const Hierarchy& hierarchy) const {
  if (regions.empty()) {
    return Status::InvalidArgument("query spec has no regions");
  }
  const bool single_region_shape = kind == QuerySpecKind::kPointInTime ||
                                   kind == QuerySpecKind::kTimeRange;
  if (single_region_shape && regions.size() != 1) {
    return Status::InvalidArgument(
        std::string(QuerySpecKindName(kind)) +
        " spec wants exactly one region, got " +
        std::to_string(regions.size()));
  }
  for (const GridMask& region : regions) {
    if (region.height() != hierarchy.atomic_height() ||
        region.width() != hierarchy.atomic_width()) {
      return Status::InvalidArgument(
          "region extents do not match hierarchy");
    }
    if (region.Empty()) {
      return Status::InvalidArgument("empty region query");
    }
  }
  if (time.t1 < time.t0) {
    return Status::InvalidArgument(
        "time selector is reversed: [" + std::to_string(time.t0) + ", " +
        std::to_string(time.t1) + "]");
  }
  // Unsigned subtraction is well-defined, so this rejects spans whose
  // num_steps() would overflow int64 (e.g. [INT64_MIN, 0]) before any
  // downstream cost arithmetic can wrap negative.
  if (static_cast<uint64_t>(time.t1) - static_cast<uint64_t>(time.t0) >=
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::InvalidArgument("time selector span overflows");
  }
  if (kind == QuerySpecKind::kPointInTime && !time.IsPoint()) {
    return Status::InvalidArgument(
        "point-in-time spec carries a time range");
  }
  if (kind == QuerySpecKind::kTopK && top_k <= 0) {
    return Status::InvalidArgument("top-k spec wants k >= 1");
  }
  return Status::OK();
}

std::string QuerySpec::ToString() const {
  std::ostringstream out;
  out << QuerySpecKindName(kind);
  if (kind == QuerySpecKind::kTopK) out << " k=" << top_k;
  out << " over " << regions.size()
      << (regions.size() == 1 ? " region" : " regions");
  if (time.IsPoint()) {
    out << " @ t=" << time.t0;
  } else {
    out << " @ t=" << time.t0 << ".." << time.t1 << " agg="
        << TimeAggregationName(aggregation);
  }
  out << " strategy=" << QueryStrategyName(strategy);
  if (eval_path != EvalPath::kExactCellLoop) {
    out << " eval=" << EvalPathName(eval_path);
  }
  return out.str();
}

}  // namespace one4all
