// Scatter-gather interpretation of QueryPlans over a ShardSet: resolve
// each distinct region once at its home shard (per-shard resolve cache),
// scatter the resolved combination terms to their owning shards for
// parallel band-local frame reads, then merge centrally by re-folding
// every row's per-term values in canonical term order. The merge is the
// bit-exactness contract: shards return raw per-(term, t) floats — never
// partial sums — and the central fold accumulates them exactly like the
// single-shard exact cell loop (FrameMemo::Evaluate's left-to-right
// `acc += sign * value`), so N-shard results are bit-identical to N=1
// for every spec shape, including top-k tie order.
#ifndef ONE4ALL_SHARD_SHARD_EXECUTOR_H_
#define ONE4ALL_SHARD_SHARD_EXECUTOR_H_

#include <vector>

#include "query/query_executor.h"
#include "query/query_planner.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"

namespace one4all {

/// \brief Execution knobs, mirroring QueryExecutorOptions minus the
/// generation (a cross-shard pin carries one generation per shard).
struct ShardExecutorOptions {
  /// Worker threads for the scatter fan-out (RunSharded semantics:
  /// 1 = calling thread, 0 = shared pool, > 1 = per-call pool).
  int num_threads = 1;
  ThreadPool* pool = nullptr;
  /// Open trace of the enclosing query; emits kResolve/kShardScatter/
  /// kShardGather (and nested) stage spans. Null traces nothing.
  TraceContext* trace = nullptr;
};

/// \brief Interprets QueryPlans against N band shards. Stateless beyond
/// its wiring; cheap to construct per call.
class ShardExecutor {
 public:
  /// \param server Resolution surface (hierarchy + index; its store is
  /// never read here — every frame read goes to a shard's store under
  /// the pin set's per-shard generation). Must outlive the executor.
  /// \param shards Must outlive the executor.
  ShardExecutor(const RegionQueryServer* server, ShardSet* shards);

  /// \brief Runs every stage of `plan` under `pins` (a coherent
  /// cross-shard pin from ShardSet::PinAll). Total like
  /// QueryExecutor::Execute: per-row failures live in rows[i].
  QueryResult Execute(const QueryPlan& plan, const ShardPinSet& pins,
                      const ShardExecutorOptions& options = {}) const;

 private:
  const RegionQueryServer* server_;
  ShardSet* shards_;
  ShardRouter router_;
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_EXECUTOR_H_
