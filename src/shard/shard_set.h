// N band-partitioned serving shards behind one epoch barrier — the
// serving runtime's only topology, with N=1 a single shard whose band is
// the whole grid. Each shard owns a private PredictionStore,
// FrameEpochManager and resolve cache, and stores only its band slice
// of every layer frame.
// Publication is two-phase across shards: stage every shard's slices
// into still-invisible shadow generations, then publish each shard's
// epoch and build one immutable pin set from them — every shard's new
// epoch plus their common latest_t — which one atomic store makes the
// set's published one. A reader pins all shards with one atomic load of
// that set. The result is the cross-shard consistency contract by
// construction: a pin set never mixes two timesteps between shards. The
// set's latest_t coherence is checked once, when it is built, and a
// violation is counted, never silent.
//
// Queries read the set through one QueryExecutor (query/
// query_executor.h), handed one (store, pinned generation, cache) view
// per shard: each region resolves at its home shard, each rect read is
// clipped to the bands it crosses and read from their band planes, and
// each residue reads its owner shard's band frame. Stored sums are
// exact, so the parts add up to the one-shard bits. Nothing there
// assumes shared memory beyond those per-shard store reads, so a
// multi-process split swaps the store access, not the algorithm.
#ifndef ONE4ALL_SHARD_SHARD_SET_H_
#define ONE4ALL_SHARD_SHARD_SET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
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
/// ordered publishes, pin-set pins), except the store reads the
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
  /// Gather reads served from this shard's store per answered timestep:
  /// 4 per clipped rect part, 1 per residue it owns.
  Counter gather_reads;
  /// Nanos-since-ShardSet-birth of the last flip; -1 before the first.
  std::atomic<int64_t> last_publish_nanos{-1};
};

/// \brief Cross-shard epoch pin: a shared handle on one immutable set
/// of per-shard epochs, all serving the same latest timestep. Copying
/// it is another pin on the same set; destruction (or Release) lets go,
/// and the last release of a superseded set reclaims its epochs.
class ShardPinSet {
 public:
  ShardPinSet() = default;

  bool pinned() const { return set_ != nullptr; }
  /// \brief The common newest timestep every pinned shard serves.
  int64_t latest_t() const { return pinned() ? set_->latest_t : -1; }
  /// \brief Shard k's pinned generation (its private store namespace).
  int64_t generation(int shard) const {
    return set_->epochs[static_cast<size_t>(shard)].generation();
  }

  void Release() { set_.reset(); }

 private:
  friend class ShardSet;
  struct Set {
    std::vector<EpochGuard> epochs;  ///< one per shard
    int64_t latest_t = -1;
  };
  explicit ShardPinSet(std::shared_ptr<const Set> set)
      : set_(std::move(set)) {}

  std::shared_ptr<const Set> set_;
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
  /// publish every shard's epoch and swap in the pin set built from them
  /// with one atomic store (phase 2). A reader pins either the old set
  /// or the new one, never a mix, and never waits.
  ///
  /// A per-layer `dirty` set is re-sliced per band before staging, so
  /// each shard delta-stages only against its own rows: a dirty tile in
  /// shard A's band never forces a copy in shard B.
  Status StageAndPublish(int64_t t, const std::vector<Tensor>& frames,
                         const DirtyTileSets* dirty, bool carry_forward,
                         TraceContext* trace) override;

  /// \brief Pins every shard's published epoch: one atomic load of the
  /// published pin set. No loop, retry or yield; it never waits for
  /// staging, a publish or a reclaim.
  ShardPinSet PinAll() const;

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

  /// \brief Always 0: a pin is one atomic load and never retries. Kept
  /// only because the end-to-end benchmark still reads it; deleted with
  /// the benchmark's next change.
  int64_t pin_retries() const { return 0; }
  /// \brief Coherence-check failures: a built pin set whose shards
  /// disagreed on latest_t. Must stay 0 — anything else is a torn
  /// cross-shard epoch.
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

  /// \brief Coherence-checks `epochs` (one per shard, counting a tear
  /// in torn_pins_) and makes them the published pin set. The superseded
  /// set is released on return, outside any lock.
  void PublishPinSet(std::vector<EpochGuard> epochs);

  std::atomic<int64_t> published_t_{-1};
  std::atomic<int64_t> torn_pins_{0};
  /// Read and replaced only through std::atomic_load/atomic_exchange.
  /// Declared after shards_, so it is released before the shards.
  std::shared_ptr<const ShardPinSet::Set> pins_;
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_SET_H_
