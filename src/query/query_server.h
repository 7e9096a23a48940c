// Online modifiable-areal-unit prediction (paper Sec. III / IV-D): the
// region decomposition server splits a region query into hierarchical
// grids (Algorithm 1), retrieves each piece's optimal combination from the
// extended quad-tree, and aggregates predicted values from the prediction
// store. Response time = decomposition + index retrieval, as in Fig. 15.
#ifndef ONE4ALL_QUERY_QUERY_SERVER_H_
#define ONE4ALL_QUERY_QUERY_SERVER_H_

#include <memory>
#include <vector>

#include "combine/combination.h"
#include "grid/decompose.h"
#include "index/quadtree.h"
#include "kvstore/prediction_store.h"
#include "query/gather_program.h"
#include "query/query_spec.h"

namespace one4all {

class ResolvedQueryCache;  // query/resolved_query_cache.h
struct RegionFingerprint;  // query/resolved_query_cache.h

/// \brief A region query resolved to signed grid terms (time-independent).
struct ResolvedQuery {
  std::vector<CombinationTerm> terms;
  /// Compiled gather form of `terms` (SAT rect reads + columnar
  /// residues), built once at resolve time so cache hits reuse the
  /// compilation along with the resolution. The executor's
  /// EvalPath::kSatFastPath interprets it; the exact cell loop ignores
  /// it.
  GatherProgram gather;
  int num_pieces = 0;
  double decompose_micros = 0.0;
  double index_micros = 0.0;
  /// Time compiling `gather` (not part of the paper-sense response
  /// time, which counts decomposition + index retrieval only).
  double compile_micros = 0.0;
};

/// \brief Answer to one (region, time) prediction query.
struct QueryResponse {
  double value = 0.0;
  int num_pieces = 0;
  int num_terms = 0;
  double decompose_micros = 0.0;
  double index_micros = 0.0;
  /// Time spent summing prediction terms out of the store (frame reads
  /// included). Not part of response_micros — the paper's response time
  /// counts decomposition + index retrieval only.
  double eval_micros = 0.0;
  /// Response time in the paper's sense (decompose + index).
  double response_micros = 0.0;
  /// True when the resolution came from a ResolvedQueryCache hit (the
  /// decompose/index work was skipped; their timings are zero).
  bool from_cache = false;
};

/// \brief The online serving component.
///
/// Resolve / EvaluateTerms are the primitive operations; the composable
/// query path (query/query_spec.h -> query/query_planner.h ->
/// query/query_executor.h) builds every question shape out of them.
/// Predict is a thin point-in-time shim over that path (same value
/// bit-for-bit).
class RegionQueryServer {
 public:
  /// \param hierarchy,index,store Must outlive the server.
  RegionQueryServer(const Hierarchy* hierarchy,
                    const ExtendedQuadTree* index,
                    const PredictionStore* store)
      : hierarchy_(hierarchy), index_(index), store_(store) {
    O4A_CHECK(hierarchy != nullptr);
    O4A_CHECK(index != nullptr);
    O4A_CHECK(store != nullptr);
  }

  const Hierarchy* hierarchy() const { return hierarchy_; }
  const ExtendedQuadTree* index() const { return index_; }
  const PredictionStore* store() const { return store_; }

  /// \brief Decomposes the region and resolves combination terms without
  /// touching prediction data (reusable across time slots).
  Result<ResolvedQuery> Resolve(const GridMask& region,
                                QueryStrategy strategy) const;

  /// \brief Sums predicted values of resolved terms at time `t`, reading
  /// frames of `generation`. Dies when a frame is missing — offline
  /// harness convenience; the serving path uses TryEvaluateTerms.
  double EvaluateTerms(const std::vector<CombinationTerm>& terms, int64_t t,
                       int64_t generation = 0) const;

  /// \brief Non-fatal EvaluateTerms: a missing frame (e.g. a query racing
  /// ahead of a late-arriving epoch) returns NotFound instead of aborting
  /// the process.
  Result<double> TryEvaluateTerms(const std::vector<CombinationTerm>& terms,
                                  int64_t t, int64_t generation = 0) const;

  /// \brief Full query: resolve + evaluate at `t` against `generation`.
  Result<QueryResponse> Predict(const GridMask& region, int64_t t,
                                QueryStrategy strategy,
                                int64_t generation = 0) const;

  /// \brief Resolve with an optional cache: hits skip decomposition and
  /// index retrieval entirely. With `cache == nullptr` this is a plain
  /// Resolve wrapped in a shared_ptr. `cache_hit` (optional) reports
  /// whether the resolution came from the cache.
  Result<std::shared_ptr<const ResolvedQuery>> ResolveCached(
      const GridMask& region, QueryStrategy strategy,
      ResolvedQueryCache* cache, bool* cache_hit = nullptr) const;

  /// \brief ResolveCached keyed by an already computed `fingerprint`
  /// (FingerprintRegion(region, strategy), e.g. the plan's
  /// slot_fingerprints), so the executors never hash a region twice.
  Result<std::shared_ptr<const ResolvedQuery>> ResolveCached(
      const GridMask& region, QueryStrategy strategy,
      const RegionFingerprint& fingerprint, ResolvedQueryCache* cache,
      bool* cache_hit = nullptr) const;

 private:
  const Hierarchy* hierarchy_;
  const ExtendedQuadTree* index_;
  const PredictionStore* store_;
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_QUERY_SERVER_H_
