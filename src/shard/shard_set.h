// N band-partitioned serving shards behind one epoch barrier — the
// serving runtime's only topology, with N=1 a single shard whose band is
// the whole grid. Each shard owns a private PredictionStore,
// FrameEpochManager and resolve cache, and stores only its band slice
// of every layer frame.
// Publication is two-phase across shards — stage every shard's slices
// into still-invisible shadow generations, then flip all shards inside
// a seqlock window (version odd while flipping) — and readers pin all
// shards through the same seqlock, retrying any pin set that raced a
// flip. The result is the cross-shard consistency contract: a query's
// pin set never mixes two timesteps between shards, verified by a
// latest_t coherence check whose violations are counted, never silent.
//
// Queries read the set through one QueryExecutor (query/
// query_executor.h), handed one (store, pinned generation, cache) view
// per shard: each region resolves at its home shard, each term reads its
// cell from its owner shard's band frame, and one fold sums them in
// canonical order. Nothing there assumes shared memory beyond those
// per-shard store reads, so a multi-process split swaps the store
// access, not the algorithm.
#ifndef ONE4ALL_SHARD_SHARD_SET_H_
#define ONE4ALL_SHARD_SHARD_SET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "kvstore/prediction_store.h"
#include "query/resolved_query_cache.h"
#include "serve/epoch_manager.h"
#include "serve/epoch_sink.h"
#include "shard/shard_map.h"

namespace one4all {

struct ShardSetOptions {
  /// Per-shard FrameEpochManagerOptions::retain_timesteps.
  int64_t retain_timesteps = 0;
  /// Per-shard resolve cache geometry (capacity is per shard, so N
  /// shards hold N x capacity distinct resolutions).
  ResolvedQueryCacheOptions cache;
  /// Span sink; null uses TraceRecorder::Global(). Must outlive the set.
  TraceRecorder* trace = nullptr;
};

/// \brief One shard's private serving state. Everything here is only
/// ever touched through the owning ShardSet's protocols (barrier-
/// ordered publishes, seqlock-guarded pins), except the store reads the
/// executor makes under a held pin.
struct Shard {
  /// \param telemetry Forwarded to the shard's epoch manager (may be
  /// null); see ShardSet's counting contract.
  Shard(const ShardSetOptions& options, ServingTelemetry* telemetry);

  PredictionStore store;
  FrameEpochManager epochs;
  ResolvedQueryCache cache;

  // Per-shard one4all_shard_* metrics (registered by pointer into the
  // runtime's registry when telemetry is wired).
  Counter epochs_published;
  Counter frames_staged;
  /// Exact-loop term-cell reads served from this shard's store: one per
  /// owned term per answered timestep.
  Counter terms_evaluated;
  /// Nanos-since-ShardSet-birth of the last flip; -1 before the first.
  std::atomic<int64_t> last_publish_nanos{-1};
};

/// \brief Cross-shard epoch pin: one EpochGuard per shard, all serving
/// the same latest timestep. Move-only; destruction (or Release) unpins
/// every shard.
class ShardPinSet {
 public:
  ShardPinSet() = default;

  bool pinned() const { return !guards_.empty(); }
  /// \brief The common newest timestep every pinned shard serves.
  int64_t latest_t() const { return latest_t_; }
  /// \brief Shard k's pinned generation (its private store namespace).
  int64_t generation(int shard) const {
    return guards_[static_cast<size_t>(shard)].generation();
  }

  void Release() { guards_.clear(); }

 private:
  friend class ShardSet;
  std::vector<EpochGuard> guards_;
  int64_t latest_t_ = -1;
};

/// \brief The shard fleet plus its barrier. Implements EpochSink, so the
/// stream ingestor publishes through it without knowing about shards.
class ShardSet : public EpochSink {
 public:
  /// \param hierarchy Must outlive the set.
  /// \param telemetry Optional shared runtime telemetry; must outlive
  /// the set when non-null. The counting contract: every shard's epoch
  /// manager counts its own per-generation work (frames staged and SAT
  /// planes built per band slice, dirty/CoW-shared tiles, epochs
  /// reclaimed per shard generation), and the set counts
  /// epochs_published once per barrier flip. It also registers the
  /// per-shard one4all_shard_* metrics.
  ShardSet(const Hierarchy* hierarchy, int num_shards,
           ServingTelemetry* telemetry, ShardSetOptions options);

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// \brief Two-phase barrier publish: slice every layer frame into its
  /// owning shards' shadow generations (phase 1 — any store refusal
  /// aborts every shard's staging and returns, nothing published), then
  /// flip all shards inside the seqlock window (phase 2). Readers
  /// pinning concurrently retry until they observe a flip-free window.
  ///
  /// A per-layer `dirty` set is re-sliced per band before staging, so
  /// each shard delta-stages only against its own rows: a dirty tile in
  /// shard A's band never forces a copy in shard B.
  Status StageAndPublish(int64_t t, const std::vector<Tensor>& frames,
                         const DirtyTileSets* dirty, bool carry_forward,
                         TraceContext* trace) override;
  using EpochSink::StageAndPublish;

  /// \brief Pins every shard's published epoch under the seqlock: load
  /// version (even = no flip in progress), pin all shards, re-check the
  /// version, retry on any race. The returned set is coherent — all
  /// guards share one latest_t; an incoherent set (a barrier bug) is
  /// counted in torn_pins() and retried rather than returned. Emits a
  /// kBarrierWait span (arg: retries) under `trace` when non-null.
  ShardPinSet PinAll(TraceContext* trace = nullptr);

  /// \brief True when the epochs in `pins` hold timestep `t` on every
  /// shard: published by then and not yet reclaimed (nor dropped by the
  /// retention horizon, nor left behind without carry-forward). A query
  /// at any other t fails NotFound against `pins`.
  bool ServesTimestep(const ShardPinSet& pins, int64_t t) const;

  int num_shards() const { return map_.num_shards(); }
  Shard& shard(int k) { return *shards_[static_cast<size_t>(k)]; }
  const Shard& shard(int k) const {
    return *shards_[static_cast<size_t>(k)];
  }
  const ShardMap& map() const { return map_; }

  /// \brief Newest barrier-published timestep (-1: none yet).
  int64_t published_latest_t() const {
    return published_t_.load(std::memory_order_acquire);
  }

  /// \brief Largest live-epoch count across shards (1 once every shard
  /// has reclaimed down to its published epoch).
  int64_t max_live_epochs() const;

  /// \brief Pin attempts that had to retry because they raced a flip
  /// (normal seqlock behavior under publish load).
  int64_t pin_retries() const {
    return pin_retries_.load(std::memory_order_relaxed);
  }
  /// \brief Coherence-check failures: a pin set whose shards disagreed
  /// on latest_t inside a stable seqlock window. Must stay 0 — anything
  /// else is a torn cross-shard epoch.
  int64_t torn_pins() const {
    return torn_pins_.load(std::memory_order_relaxed);
  }

  /// \brief The cross-shard consistency invariant: no torn pins ever,
  /// and every shard's published epoch serves the same latest timestep.
  bool Consistent() const;

  /// \brief Wall milliseconds since shard k last flipped (since
  /// construction before its first flip) — the per-shard publish lag
  /// surfaced by `serve --report-ms` and the shard metrics.
  double PublishLagMs(int shard) const;

  /// \brief Fault injection across every shard's store (write refusals
  /// must hit all bands, or a publish would tear by construction).
  void SetWriteFault(Status fault);
  void ClearWriteFault();

  /// \brief Every shard's resolve-cache counters and sizes, summed
  /// (invalidations count once per shard cache cleared).
  ResolvedQueryCacheStats CacheStats() const;

  /// \brief Clears every shard's resolve cache (index swap).
  void InvalidateCaches();

 private:
  int64_t NowNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - birth_)
        .count();
  }

  ShardMap map_;
  ServingTelemetry* telemetry_;  ///< may be null
  ShardSetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::chrono::steady_clock::time_point birth_;

  /// Seqlock over the cross-shard flip: odd while shards are being
  /// flipped, even when every shard serves one coherent timestep.
  std::atomic<uint64_t> version_{0};
  std::atomic<int64_t> published_t_{-1};
  std::atomic<int64_t> pin_retries_{0};
  std::atomic<int64_t> torn_pins_{0};
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_SET_H_
