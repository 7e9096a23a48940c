// Online prediction storage: the deployed model continuously synchronizes
// multi-scale prediction frames into the store (paper Sec. III "online
// phase"); the query server reads grid values and summed-area planes back
// by (generation, layer, t).
//
// Generations are the MVCC substrate of the serving runtime
// (src/serve/epoch_manager.h): a writer stages the full frame set of the
// next epoch under an unpublished shadow generation while readers keep
// serving from the published one, so no reader ever observes a
// half-synced timestep. A served generation lives exactly as long as the
// shared, immutable Epoch naming it: the last release of that pointer
// calls DropGeneration, so the store itself tracks no pins. Generation 0
// is the "static" generation the offline harness (MauPipeline) writes
// to; every pre-existing call site keeps working unchanged against it.
//
// Storage is tiled and copy-on-write (tensor/tiled_sat.h): a stored
// timestep is one immutable entry holding its frame and the frame's
// two-level summed-area plane as shared tile blocks, so
//   - every write stores frame and plane together: the plane is built
//     from the frame before the lock is taken, and both land in one map
//     write, so no reader ever sees a frame without its plane;
//   - CopyGeneration (the epoch carry-forward) copies shared_ptrs, not
//     cell data — O(window) pointer aliasing per epoch;
//   - the delta write path (TrySyncFrameDeltaAt) copies only the tiles a
//     dirty set marks and rebuilds only their plane locals, aliasing
//     every clean tile from the base timestep's entry — staging a
//     5%-churn epoch copies ~5% of the data;
//   - reads are zero-copy: GetStoredFrameAt hands out the stored
//     shared_ptrs under one shared lock, and readers read cells in place
//     through the frame's tile table — no read path copies a frame;
//   - reclamation (DropGeneration) is a map erase: a tile block is freed
//     when the last generation (or reader-held frame) referencing it
//     drops, and a generation drops when its epoch's last pin goes, so
//     a pinned epoch's data lives precisely as long as its pins.
//
// Every stored cell is a multiple of 2^-20 (TiledFrame snaps it on the
// way in), and both write paths refuse a frame with a NaN or infinite
// cell or an absolute sum past kMaxFrameAbsSum, storing nothing. Plane
// reads over a stored frame therefore form exact sums, at every shard
// count and from full or incremental staging.
#ifndef ONE4ALL_KVSTORE_PREDICTION_STORE_H_
#define ONE4ALL_KVSTORE_PREDICTION_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "core/status.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"

namespace one4all {

class TraceContext;

/// \brief Generation-keyed tiled CoW store of per-layer prediction
/// frames and their summed-area planes.
class PredictionStore {
 public:
  PredictionStore() = default;

  PredictionStore(const PredictionStore&) = delete;
  PredictionStore& operator=(const PredictionStore&) = delete;

  /// \brief One stored timestep as readers pin it: the tiled frame and
  /// its summed-area plane, written together and never one without the
  /// other.
  struct StoredFrame {
    std::shared_ptr<const TiledFrame> frame;
    std::shared_ptr<const TiledSatPlane> plane;
  };

  /// \brief Tile accounting of one delta-staged frame/plane, fed into
  /// the stage_dirty_tiles / cow_shared_tiles telemetry counters.
  struct StageStats {
    int64_t frame_tiles_total = 0;
    int64_t frame_tiles_shared = 0;  ///< aliased from the base frame
    int64_t plane_tiles_reused = 0;  ///< locals aliased from the base plane
  };

  /// \brief Writes the prediction frame [Hl, Wl] of (layer, t) into
  /// generation 0.
  void SyncFrame(int layer, int64_t t, const Tensor& frame);

  /// \brief Writes a frame into an explicit generation. Serving writers
  /// stage whole epochs this way before publishing them atomically.
  /// Dies under an injected write fault — offline-harness convenience
  /// only; fault-tolerant writers use TrySyncFrameAt.
  void SyncFrameAt(int64_t generation, int layer, int64_t t,
                   const Tensor& frame);

  /// \brief Non-fatal frame write: returns the injected fault Status
  /// while SetWriteFault is active (the store-refuses-writes seam the
  /// scenario harness drives), OK and the write otherwise. The epoch
  /// staging path routes through this so an unwritable store surfaces
  /// as an aborted epoch, never a crash or a torn publish. Every tile
  /// is copied fresh and the frame's plane built in full (a
  /// kBuildSatPlane span under `trace`, when set); the dirty set is
  /// recorded as unknown. InvalidArgument, storing nothing, when the
  /// frame holds a NaN or infinite cell or its absolute sum passes
  /// kMaxFrameAbsSum. A refused write leaves the previous entry as it
  /// was.
  Status TrySyncFrameAt(int64_t generation, int layer, int64_t t,
                        const Tensor& frame, TraceContext* trace = nullptr);

  /// \brief Copy-on-write frame write: tiles marked in `dirty` are
  /// copied from `frame` and rebuild their plane locals; clean tiles
  /// alias the frame and plane blocks of the base entry (generation,
  /// layer, base_t) — the previous timestep the ingestor diffed `frame`
  /// against — and the plane's coarse carries are recomputed in one
  /// deterministic sweep (a kTileSatFixup span under `trace`), so the
  /// plane is bit-identical to a full build. Falls back to a full fresh
  /// write when the base is missing, geometry differs, or `dirty` is
  /// unknown (empty). Records `dirty` with the entry (GetDirtyAt).
  /// Refuses the frame as TrySyncFrameAt does.
  Status TrySyncFrameDeltaAt(int64_t generation, int layer, int64_t t,
                             const Tensor& frame, int64_t base_t,
                             const TileDirtySet& dirty,
                             StageStats* stats = nullptr,
                             TraceContext* trace = nullptr);

  /// \brief Zero-copy read, the only frame/plane read surface: the
  /// entry's shared_ptrs fetched under one shared lock, no cell copy.
  /// Readers pin the returned objects and read in place
  /// (TiledFrame::tiles(), TiledSatPlane::RectSum); they outlive any
  /// concurrent reclamation of their generation. NotFound when nothing
  /// was stored at (generation, layer, t).
  Result<StoredFrame> GetStoredFrameAt(int64_t generation, int layer,
                                       int64_t t) const;
  /// \brief Views of GetStoredFrameAt for callers that read one part.
  Result<std::shared_ptr<const TiledFrame>> GetTiledFrameAt(
      int64_t generation, int layer, int64_t t) const;
  Result<std::shared_ptr<const TiledSatPlane>> GetTiledSatPlaneAt(
      int64_t generation, int layer, int64_t t) const;

  /// \brief The dirty set recorded when (generation, layer, t) was
  /// delta-staged (tiles changed vs. its predecessor timestep), or null
  /// when the frame is missing or was staged without one — callers must
  /// then assume everything changed.
  std::shared_ptr<const TileDirtySet> GetDirtyAt(int64_t generation,
                                                 int layer, int64_t t) const;

  /// \brief Point read of one grid's predicted value. Dies if the frame
  /// was never synced — only for offline harness code whose frames are
  /// synced up front; the serving path uses TryGetValue.
  float GetValue(int layer, int64_t t, int64_t row, int64_t col) const;

  /// \brief Non-fatal point read: NotFound when the frame was never
  /// synced (e.g. a query raced ahead of a late-arriving epoch),
  /// OutOfRange when (row, col) falls outside the frame.
  Result<float> TryGetValue(int layer, int64_t t, int64_t row,
                            int64_t col) const;
  Result<float> TryGetValueAt(int64_t generation, int layer, int64_t t,
                              int64_t row, int64_t col) const;

  bool HasFrame(int layer, int64_t t) const;
  bool HasFrameAt(int64_t generation, int layer, int64_t t) const;

  /// \brief Copies frames of `from` with t >= `min_t` into generation
  /// `to` — shared_ptr aliasing of every tile block, no cell data moves.
  /// The epoch manager's carry-forward: the shadow generation starts as
  /// a snapshot of the published one, optionally truncated to a
  /// retention horizon so continuous runs keep per-epoch cost bounded.
  /// Returns the number of entries copied.
  int64_t CopyGeneration(int64_t from, int64_t to,
                         int64_t min_t = INT64_MIN);

  /// \brief Deletes every frame of a generation (epoch reclamation: the
  /// last release of the epoch's pointer); tile blocks free when their
  /// last referencing generation drops. Returns the number of entries
  /// dropped.
  int64_t DropGeneration(int64_t generation);

  /// \brief Deletes a generation's frames with t < `min_t` (retention
  /// trim of a still-unpublished shadow generation). Returns the number
  /// of entries dropped.
  int64_t DropFramesBelow(int64_t generation, int64_t min_t);

  /// \brief Number of entries (frames, each with its plane) stored
  /// under a generation.
  int64_t NumFramesAt(int64_t generation) const;

  /// \brief Injects a write fault: every TrySync* call returns
  /// `fault` (and every fatal Sync* dies) until ClearWriteFault. `fault`
  /// must be an error. Models a store that stopped accepting writes
  /// (full disk, lost quorum); reads are deliberately unaffected — the
  /// published epoch keeps serving while the writer absorbs failures.
  void SetWriteFault(Status fault);
  void ClearWriteFault();
  bool write_fault_active() const {
    return fault_active_.load(std::memory_order_acquire);
  }

 private:
  /// \brief One stored (generation, layer, t): tiled CoW frame and
  /// plane, and the dirty set it was staged with (null when unknown).
  struct Entry {
    StoredFrame stored;
    std::shared_ptr<const TileDirtySet> dirty;
  };
  using Key = std::tuple<int64_t, int, int64_t>;  // (generation, layer, t)

  /// \brief The injected fault Status, or OK when writes are healthy.
  Status WriteFault() const;

  /// \brief Copies one entry's shared_ptrs under the shared lock; false
  /// when absent.
  bool SnapshotEntry(const Key& key, Entry* out) const;

  mutable std::shared_mutex mu_;
  std::map<Key, Entry> entries_;

  // Write-fault seam: flag checked on the hot path (one relaxed load),
  // Status only locked when a fault is actually set or read.
  std::atomic<bool> fault_active_{false};
  mutable std::mutex fault_mu_;
  Status fault_;
};

}  // namespace one4all

#endif  // ONE4ALL_KVSTORE_PREDICTION_STORE_H_
