// Runs a compiled QueryPlan against a RegionQueryServer at any shard
// count: a cache-probe / resolve stage over the plan's distinct regions
// (each probing its home shard's cache), an epoch-pinned gather stage
// that reuses each resolution across every timestep it serves, an
// aggregation fold (sum/mean/max) and an optional top-k rank stage. The
// gather stage has one interpreter: each resolution's compiled gather
// program (query/gather_program.h), whose rect reads are four-corner
// summed-area plane reads and whose residues are in-place tile reads.
// At N > 1 each rect is clipped to the shard bands its rows cross and
// each part read from its owner's band plane; each residue reads its
// owner's band frame at the band-local address. Stored sums are exact,
// so every shard count returns the N = 1 bits. Every stage runs on the
// calling thread; concurrency comes from concurrent callers. Per-row
// failures surface as that row's Status. Stage costs are the resolve /
// gather / rank spans of the caller's trace; the executor reads no
// clock of its own.
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
/// resolve cache and its gather-read counter.
struct ShardReadView {
  const PredictionStore* store = nullptr;
  int64_t generation = 0;
  /// Resolve cache of the regions homed on this shard; null resolves
  /// uncached.
  ResolvedQueryCache* cache = nullptr;
  /// Counts the gather reads this shard served per answered timestep:
  /// 4 per clipped rect part, 1 per residue. Null counts nothing.
  Counter* gather_reads = nullptr;
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
  /// region resolves through its home shard's cache; the gather reads
  /// every cell from its owner shard. Both must outlive the call.
  const ShardMap* shard_map = nullptr;
  std::vector<ShardReadView> shards;
  /// Open trace of the enclosing query; one span per stage (resolve /
  /// gather / rank) nests under its current parent span. Null traces
  /// nothing.
  TraceContext* trace = nullptr;
};

/// \brief One result row: the (aggregated) predicted value of one region
/// of the spec, plus its resolution's size.
struct QueryRow {
  double value = 0.0;
  /// Per-timestep values in ascending t, kept when the spec asked for
  /// keep_series (empty otherwise).
  std::vector<double> series;
  int num_pieces = 0;
  int num_terms = 0;
  /// The resolution came from a resolve-cache hit.
  bool from_cache = false;
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

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_EXECUTOR_H_
