// Typed request model of the composable query API: a QuerySpec describes
// *what* a client wants answered — a region set, a time selector, an
// aggregation and ranking options — independent of *how* it runs. The
// QueryPlanner (query/query_planner.h) compiles a spec into an executable
// plan; the QueryExecutor (query/query_executor.h) runs the plan through
// the resolve-cache / epoch-pin / frame-memoization machinery.
// RegionQueryServer::Predict is a thin point-in-time shim over this path.
#ifndef ONE4ALL_QUERY_QUERY_SPEC_H_
#define ONE4ALL_QUERY_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "grid/hierarchy.h"
#include "grid/mask.h"

namespace one4all {

/// \brief How a region query's decomposed pieces are turned into
/// prediction terms (Table III's three strategies).
enum class QueryStrategy {
  kDirect,            ///< sum decomposed grids' own predictions
  kUnion,             ///< single-grid optima from the union-only DP
  kUnionSubtraction,  ///< multi-grid optima with subtraction (full system)
};

const char* QueryStrategyName(QueryStrategy strategy);

/// \brief How the executor turns resolved terms into values.
enum class EvalPath {
  /// The PR-4 per-term loop: one signed frame read per combination term,
  /// in term order. Bit-exact with RegionQueryServer::Predict's
  /// arithmetic — the regression-pinning reference, and the default.
  kExactCellLoop,
  /// The gather engine: rect-decomposable term groups collapse to
  /// four-corner summed-area-plane reads (O(#rects) whatever their
  /// area), irregular residues to in-place reads of the pinned tiled
  /// frames, with frames and planes pinned once per plan (no cell
  /// copy). Bit-identical to the exact loop: stored cells are
  /// multiples of 2^-20, so every plane sum is exact. Falls back to
  /// frame reads per rect when a generation carries no planes.
  kSatFastPath,
};

const char* EvalPathName(EvalPath path);

/// \brief The question shapes the query layer understands, one per spec
/// constructor.
enum class QuerySpecKind {
  kPointInTime,  ///< one region's value at one timestep (paper semantics)
  kTimeRange,    ///< one region aggregated over [t0, t1]
  kMultiRegion,  ///< many regions at one time selector, one batch
  kTopK,         ///< rank regions by (aggregated) predicted value
};

constexpr int kNumQuerySpecKinds = 4;

const char* QuerySpecKindName(QuerySpecKind kind);

/// \brief Inclusive timestep interval [t0, t1]; a point query is t0 == t1.
struct TimeSelector {
  int64_t t0 = 0;
  int64_t t1 = 0;

  static TimeSelector At(int64_t t) { return TimeSelector{t, t}; }
  static TimeSelector Range(int64_t t0, int64_t t1) {
    return TimeSelector{t0, t1};
  }

  bool IsPoint() const { return t0 == t1; }
  int64_t num_steps() const { return t1 - t0 + 1; }
};

/// \brief How per-timestep region values fold across a time range. A
/// point selector makes all three equivalent to the single value.
enum class TimeAggregation {
  kSum,   ///< total over the range
  kMean,  ///< average per timestep
  kMax,   ///< peak timestep value
};

const char* TimeAggregationName(TimeAggregation agg);

/// \brief A fully-typed query request: region set x time selector x
/// aggregation x options. Build through the factory functions; Validate()
/// is what the planner calls before compiling.
struct QuerySpec {
  QuerySpecKind kind = QuerySpecKind::kPointInTime;
  /// The region set. Point/range shapes use exactly one entry; grouped
  /// and top-k shapes any positive number.
  std::vector<GridMask> regions;
  TimeSelector time;
  TimeAggregation aggregation = TimeAggregation::kSum;
  /// kTopK: how many ranked regions to return (clamped to the region
  /// count at execution).
  int top_k = 0;
  QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
  /// Term-evaluation path. The default stays the bit-exact cell loop;
  /// latency-sensitive callers opt into the SAT/columnar fast path.
  EvalPath eval_path = EvalPath::kExactCellLoop;
  /// Keep the per-timestep value series in each result row (range
  /// shapes; costs 8 bytes per step per region).
  bool keep_series = false;

  /// \brief Today's behavior: one region's sum at one timestep.
  static QuerySpec PointInTime(
      GridMask region, int64_t t,
      QueryStrategy strategy = QueryStrategy::kUnionSubtraction);

  /// \brief One region aggregated over [t0, t1], resolving once and
  /// reusing the resolution across every timestep.
  static QuerySpec TimeRange(
      GridMask region, int64_t t0, int64_t t1,
      TimeAggregation aggregation = TimeAggregation::kSum,
      QueryStrategy strategy = QueryStrategy::kUnionSubtraction);

  /// \brief Many regions answered as one batch at timestep `t`
  /// (duplicate regions share one resolve-cache probe).
  static QuerySpec MultiRegion(
      std::vector<GridMask> regions, int64_t t,
      QueryStrategy strategy = QueryStrategy::kUnionSubtraction);

  /// \brief Ranks `regions` by predicted value at `t`, descending;
  /// returns the k best.
  static QuerySpec TopK(
      std::vector<GridMask> regions, int64_t t, int k,
      QueryStrategy strategy = QueryStrategy::kUnionSubtraction);

  /// \brief Structural validation against the serving hierarchy: region
  /// count and extents, time ordering, top-k positivity. Timestep
  /// existence is not checked here — frame availability is an execution-
  /// time property of the pinned epoch.
  Status Validate(const Hierarchy& hierarchy) const;

  /// \brief One-line human-readable description ("TopK k=3 over 12
  /// regions @ t=96..111 agg=max strategy=Union & Subtraction").
  std::string ToString() const;
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_SPEC_H_
