// Runs a compiled QueryPlan against a RegionQueryServer at any shard
// count: a cache-probe / resolve stage over the plan's distinct regions
// (each probing its home shard's cache), an epoch-pinned gather stage
// that reuses each resolution across every timestep it serves, an
// aggregation fold (sum/mean/max) and an optional top-k rank stage. The
// gather stage has two interpreters, selected by the plan's EvalPath:
// the bit-exact per-term cell loop (one frame memo per plan; each term
// reads its owner shard's band frame), and the SAT fast path, which
// prefetches every (layer, t) frame/summed-area plane the plan touches
// once and then answers rect-decomposed term groups with four-corner
// plane reads plus a columnar residue sweep. Every stage runs on the
// calling thread; concurrency comes from concurrent callers. Per-row
// failures surface as that row's Status; stage wall times land in the
// structured QueryResult.
#ifndef ONE4ALL_QUERY_QUERY_EXECUTOR_H_
#define ONE4ALL_QUERY_QUERY_EXECUTOR_H_

#include <vector>

#include "obs/trace.h"
#include "query/query_planner.h"
#include "query/query_server.h"
#include "query/query_spec.h"

namespace one4all {

class Counter;   // obs/metrics.h
class ShardMap;  // shard/shard_map.h

/// \brief One band shard's read surface under a held cross-shard pin:
/// the store its frames come from, the generation the pin names, its
/// resolve cache and its term-read counter.
struct ShardReadView {
  const PredictionStore* store = nullptr;
  int64_t generation = 0;
  /// Resolve cache of the regions homed on this shard; null resolves
  /// uncached.
  ResolvedQueryCache* cache = nullptr;
  /// Counts the exact loop's term-cell reads this shard served (one per
  /// term per answered timestep); null counts nothing.
  Counter* terms_evaluated = nullptr;
};

/// \brief Execution knobs.
struct QueryExecutorOptions {
  /// One-store callers: an optional resolve cache shared across calls
  /// (must outlive the call) and the generation of the server's store
  /// every frame read goes through. Unused when `shards` is set.
  ResolvedQueryCache* cache = nullptr;
  int64_t generation = 0;
  /// Band-sharded callers (the serving runtime): one view per shard of
  /// `shard_map`, in shard order, all under one cross-shard pin. Each
  /// region resolves through its home shard's cache; the exact loop
  /// reads every term from its owner shard. Both must outlive the call.
  const ShardMap* shard_map = nullptr;
  std::vector<ShardReadView> shards;
  /// Open trace of the enclosing query; stage spans (resolve / gather /
  /// fold / rank) nest under its current parent span. Null traces
  /// nothing.
  TraceContext* trace = nullptr;
};

/// \brief One result row: the (aggregated) predicted value of one region
/// of the spec, plus the same per-query accounting QueryResponse carries.
struct QueryRow {
  double value = 0.0;
  /// Per-timestep values in ascending t, kept when the spec asked for
  /// keep_series (empty otherwise).
  std::vector<double> series;
  int num_pieces = 0;
  int num_terms = 0;
  bool from_cache = false;
  double decompose_micros = 0.0;
  double index_micros = 0.0;
  double eval_micros = 0.0;
  /// Resolve-path latency in the paper's sense: decompose + index on a
  /// miss, the measured cache-probe time on a hit.
  double response_micros = 0.0;
};

/// \brief Wall time of each executor stage, in microseconds.
struct QueryStageTimings {
  double plan_micros = 0.0;     ///< spec -> plan compilation
  double resolve_micros = 0.0;  ///< cache probe + decompose + index
  double eval_micros = 0.0;     ///< frame gather + aggregation folds
  double rank_micros = 0.0;     ///< top-k ordering (0 unless kTopK)
  double total_micros = 0.0;
};

/// \brief Structured answer to one executed plan.
struct QueryResult {
  QuerySpecKind kind = QuerySpecKind::kPointInTime;
  /// rows[i] answers spec.regions[i]; failures do not abort sibling
  /// rows.
  std::vector<Result<QueryRow>> rows;
  /// kTopK only: indices into `rows` of the k best OK rows, value
  /// descending (ties broken toward the lower index).
  std::vector<int> top_k;
  QueryStageTimings timings;
  /// Resolve-cache probes made by this execution (0 when no cache).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// \brief Interprets QueryPlans. Stateless; cheap to construct per call.
class QueryExecutor {
 public:
  /// \param server Must outlive the executor.
  explicit QueryExecutor(const RegionQueryServer* server);

  /// \brief Runs every stage of `plan`. The result is total: per-row
  /// failures are inside rows[i], never a thrown batch failure.
  QueryResult Execute(const QueryPlan& plan,
                      const QueryExecutorOptions& options = {}) const;

 private:
  const RegionQueryServer* server_;
};

namespace query_internal {

/// \brief The aggregation fold shared by both gather interpreters
/// (exact cell loop, SAT fast path). Left-to-
/// right accumulation in series order — part of the bit-exactness
/// contract, so no caller may re-fold with a different association.
double FoldSeries(const std::vector<double>& series, TimeAggregation agg);

/// \brief Builds one result row from its gathered series plus the
/// resolution's accounting — the one place every gather interpreter
/// fills row bookkeeping, so the paths cannot diverge when QueryRow
/// grows a field. `cache_hit`/`probe_micros` describe the resolve-cache
/// probe that produced `rq`.
QueryRow MakeQueryRow(const std::vector<double>& series, TimeAggregation agg,
                      bool keep_series, const ResolvedQuery& rq,
                      bool cache_hit, double probe_micros,
                      double eval_micros, TraceContext* trace);

/// \brief Stage 3: top-k rank over `result->rows` (no-op unless the plan
/// is a kTopK spec). Ties break toward the lower row index.
void RankTopK(const QueryPlan& plan, TraceContext* trace,
              QueryResult* result);

}  // namespace query_internal

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_EXECUTOR_H_
