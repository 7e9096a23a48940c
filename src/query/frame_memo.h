// Internal execution helpers shared by the QueryExecutor's exact cell
// loop and the ShardExecutor's band-local scatter reads: the per-worker
// prediction-frame memo and the sharded parallel-for policy. Kept in one
// place so every gather path reads frames the same way and evaluates
// terms with byte-identical arithmetic (same frame reads, same
// accumulation order).
#ifndef ONE4ALL_QUERY_FRAME_MEMO_H_
#define ONE4ALL_QUERY_FRAME_MEMO_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "kvstore/prediction_store.h"
#include "query/query_server.h"
#include "tensor/gemm.h"

namespace one4all {
namespace query_internal {

/// \brief Per-worker memo of pinned prediction frames: one store fetch
/// per (layer, t) instead of one per combination term, and no cell copy
/// at all — each entry pins the tiled copy-on-write frame the store
/// holds and terms read their cell through its tile table.
///
/// A flat key-sorted vector, not a map: the memo holds a handful of
/// frames (layers x timesteps of one worker chunk), so binary search
/// over contiguous keys beats pointer-chasing map nodes, and inserting
/// shifts only (key, shared_ptr) pairs.
class FrameMemo {
 public:
  FrameMemo(const PredictionStore* store, int64_t generation)
      : store_(store), generation_(generation) {}

  /// \brief The frame of (layer, t), pinned from the store on first use.
  /// The pointer stays valid for the memo's lifetime — the memo's pin
  /// keeps the frame alive even if its generation is reclaimed.
  Result<const TiledFrame*> Get(int layer, int64_t t) {
    const Key key{layer, t};
    auto it = std::lower_bound(
        frames_.begin(), frames_.end(), key,
        [](const Entry& e, const Key& k) { return e.first < k; });
    if (it == frames_.end() || it->first != key) {
      Result<std::shared_ptr<const TiledFrame>> frame =
          store_->GetTiledFrameAt(generation_, layer, t);
      O4A_RETURN_NOT_OK(frame.status());
      it = frames_.insert(it, Entry{key, frame.MoveValueUnsafe()});
    }
    return it->second.get();
  }

  /// \brief Sums signed term predictions at `t` (same term order as
  /// RegionQueryServer::EvaluateTerms, so values match it exactly).
  Status Evaluate(const std::vector<CombinationTerm>& terms, int64_t t,
                  double* value) {
    double acc = 0.0;
    for (const CombinationTerm& term : terms) {
      O4A_ASSIGN_OR_RETURN(const TiledFrame* frame, Get(term.grid.layer, t));
      acc += static_cast<double>(term.sign) *
             frame->at(term.grid.row, term.grid.col);
    }
    *value = acc;
    return Status::OK();
  }

 private:
  using Key = std::pair<int, int64_t>;
  using Entry = std::pair<Key, std::shared_ptr<const TiledFrame>>;

  const PredictionStore* store_;
  int64_t generation_;
  std::vector<Entry> frames_;  ///< key-ascending
};

/// \brief Runs `body(begin, end)` over [0, n) with the requested
/// parallelism; `pool` wins over `num_threads` (BatchOptions semantics:
/// 0 = ambient/shared pool, 1 = caller's thread, > 1 = per-call pool).
inline void RunSharded(ThreadPool* pool, int num_threads, int64_t n,
                       const std::function<void(int64_t, int64_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
  } else if (num_threads == 0) {
    // Resolve through the central policy: Shared() by default, sequential
    // when issued from a pool worker (waiting on a pool from one of its
    // own workers would deadlock).
    if (ThreadPool* ambient = ResolveComputePool()) {
      ambient->ParallelFor(n, body);
    } else {
      body(0, n);
    }
  } else if (num_threads > 1) {
    ThreadPool local(num_threads);
    local.ParallelFor(n, body);
  } else {
    body(0, n);
  }
}

}  // namespace query_internal
}  // namespace one4all

#endif  // ONE4ALL_QUERY_FRAME_MEMO_H_
