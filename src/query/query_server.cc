#include "query/query_server.h"

#include <utility>

#include "core/stopwatch.h"
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
  resolved.gather = CompileGatherProgram(resolved.terms, *hierarchy_);
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
  O4A_ASSIGN_OR_RETURN(const QueryRow row, std::move(executed.rows[0]));
  return QueryResponse{row.value, row.num_pieces, row.num_terms};
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

}  // namespace one4all
