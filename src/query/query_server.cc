#include "query/query_server.h"

#include <utility>

#include "core/stopwatch.h"
#include "query/frame_memo.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"

namespace one4all {

Result<ResolvedQuery> RegionQueryServer::Resolve(
    const GridMask& region, QueryStrategy strategy) const {
  if (region.height() != hierarchy_->atomic_height() ||
      region.width() != hierarchy_->atomic_width()) {
    return Status::InvalidArgument("region extents do not match hierarchy");
  }
  if (region.Empty()) {
    return Status::InvalidArgument("empty region query");
  }

  ResolvedQuery resolved;
  Stopwatch timer;
  const std::vector<DecomposedPiece> pieces =
      HierarchicalDecompose(*hierarchy_, region);
  resolved.decompose_micros = timer.ElapsedMicros();
  resolved.num_pieces = static_cast<int>(pieces.size());

  timer.Restart();
  for (const DecomposedPiece& piece : pieces) {
    switch (strategy) {
      case QueryStrategy::kDirect:
        // Each decomposed grid contributes its own prediction.
        for (const GridId& g : piece.grids) {
          resolved.terms.push_back(CombinationTerm{g, 1});
        }
        break;
      case QueryStrategy::kUnion:
        // Single-grid optima from the union DP; multi-grid pieces use the
        // union of their members' optima.
        for (const GridId& g : piece.grids) {
          const Combination* combo = index_->LookupSingle(g);
          O4A_CHECK(combo != nullptr);
          resolved.terms.insert(resolved.terms.end(), combo->terms.begin(),
                                combo->terms.end());
        }
        break;
      case QueryStrategy::kUnionSubtraction: {
        const Combination* combo = nullptr;
        if (piece.IsMultiGrid()) {
          combo = index_->LookupMulti(
              CombinationSearchResult::KeyFor(*hierarchy_, piece.grids));
        } else {
          combo = index_->LookupSingle(piece.grids[0]);
        }
        if (combo != nullptr) {
          resolved.terms.insert(resolved.terms.end(), combo->terms.begin(),
                                combo->terms.end());
        } else {
          // Fallback when the multi-grid was not enumerated (e.g. large
          // windows): union of member singles.
          for (const GridId& g : piece.grids) {
            const Combination* single = index_->LookupSingle(g);
            O4A_CHECK(single != nullptr);
            resolved.terms.insert(resolved.terms.end(),
                                  single->terms.begin(),
                                  single->terms.end());
          }
        }
        break;
      }
    }
  }
  resolved.index_micros = timer.ElapsedMicros();

  timer.Restart();
  resolved.gather = CompileGatherProgram(resolved.terms, *hierarchy_);
  resolved.compile_micros = timer.ElapsedMicros();
  return resolved;
}

double RegionQueryServer::EvaluateTerms(
    const std::vector<CombinationTerm>& terms, int64_t t,
    int64_t generation) const {
  auto value = TryEvaluateTerms(terms, t, generation);
  O4A_CHECK(value.ok()) << value.status().ToString();
  return *value;
}

Result<double> RegionQueryServer::TryEvaluateTerms(
    const std::vector<CombinationTerm>& terms, int64_t t,
    int64_t generation) const {
  double value = 0.0;
  for (const CombinationTerm& term : terms) {
    O4A_ASSIGN_OR_RETURN(
        const float predicted,
        store_->TryGetValueAt(generation, term.grid.layer, t, term.grid.row,
                              term.grid.col));
    value += static_cast<double>(term.sign) * predicted;
  }
  return value;
}

Result<QueryResponse> RegionQueryServer::Predict(
    const GridMask& region, int64_t t, QueryStrategy strategy,
    int64_t generation) const {
  // Thin shim over the composable path: point-in-time spec -> plan ->
  // executor, on the calling thread, no cache.
  QueryPlanner planner(hierarchy_);
  O4A_ASSIGN_OR_RETURN(
      QueryPlan plan,
      planner.Plan(QuerySpec::PointInTime(region, t, strategy)));
  QueryExecutorOptions options;
  options.generation = generation;
  QueryResult executed = QueryExecutor(this).Execute(plan, options);
  return query_internal::RowToResponse(std::move(executed.rows[0]));
}

Result<std::shared_ptr<const ResolvedQuery>>
RegionQueryServer::ResolveCached(const GridMask& region,
                                 QueryStrategy strategy,
                                 ResolvedQueryCache* cache,
                                 bool* cache_hit) const {
  // Without a cache nothing is keyed, so skip the hash.
  const RegionFingerprint fingerprint =
      cache == nullptr ? RegionFingerprint{}
                       : FingerprintRegion(region, strategy);
  return ResolveCached(region, strategy, fingerprint, cache, cache_hit);
}

Result<std::shared_ptr<const ResolvedQuery>>
RegionQueryServer::ResolveCached(const GridMask& region,
                                 QueryStrategy strategy,
                                 const RegionFingerprint& fingerprint,
                                 ResolvedQueryCache* cache,
                                 bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  if (cache == nullptr) {
    O4A_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(region, strategy));
    return std::make_shared<const ResolvedQuery>(std::move(resolved));
  }
  if (std::shared_ptr<const ResolvedQuery> hit = cache->Get(fingerprint)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return hit;
  }
  O4A_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(region, strategy));
  auto entry = std::make_shared<const ResolvedQuery>(std::move(resolved));
  cache->Put(fingerprint, entry);
  return entry;
}

std::vector<Result<ResolvedQuery>> RegionQueryServer::BatchResolve(
    const std::vector<GridMask>& regions, QueryStrategy strategy,
    const BatchOptions& options) const {
  std::vector<Result<ResolvedQuery>> results(
      regions.size(), Status::Internal("batch entry not evaluated"));
  query_internal::RunSharded(
      options.pool, options.num_threads,
      static_cast<int64_t>(regions.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          auto resolved = ResolveCached(regions[static_cast<size_t>(i)],
                                        strategy, options.cache);
          if (resolved.ok()) {
            results[static_cast<size_t>(i)] = **resolved;
          } else {
            results[static_cast<size_t>(i)] = resolved.status();
          }
        }
      });
  return results;
}

std::vector<Result<QueryResponse>> RegionQueryServer::BatchPredict(
    const std::vector<BatchQuery>& queries, QueryStrategy strategy,
    const BatchOptions& options) const {
  // Thin shim over the composable path: the legacy batch adapter keeps
  // one row and one cache probe per (region, t) pair, so the observable
  // cache statistics and per-query failure semantics are unchanged.
  QueryPlanner planner(hierarchy_);
  auto plan = planner.PlanBatch(queries, strategy);
  O4A_CHECK(plan.ok()) << plan.status().ToString();
  QueryExecutorOptions exec_options;
  exec_options.num_threads = options.num_threads;
  exec_options.pool = options.pool;
  exec_options.cache = options.cache;
  exec_options.generation = options.generation;
  QueryResult executed = QueryExecutor(this).Execute(*plan, exec_options);
  std::vector<Result<QueryResponse>> results;
  results.reserve(executed.rows.size());
  for (auto& row : executed.rows) {
    results.push_back(query_internal::RowToResponse(std::move(row)));
  }
  return results;
}

}  // namespace one4all
