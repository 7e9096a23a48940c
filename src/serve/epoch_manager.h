// MVCC-style epoch-versioned publication of prediction frames (the
// paper's online phase under continuous synchronization): a writer
// stages the full multi-scale frame set of the next timestep under an
// unpublished shadow generation of the PredictionStore, then publishes
// it as one immutable Epoch, swapped in with one atomic exchange of a
// shared_ptr. A reader pins with one atomic load of that pointer (the
// RAII EpochGuard holds the copy) and routes every frame read through
// the epoch's generation, so it never observes a torn, half-synced
// timestep and never waits for a writer. Nothing counts pins: the last
// release of an epoch's pointer, by the publisher that superseded it or
// by the reader that held it longest, drops its generation from the
// store, and that drop is the reclaim.
#ifndef ONE4ALL_SERVE_EPOCH_MANAGER_H_
#define ONE4ALL_SERVE_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "kvstore/prediction_store.h"
#include "obs/trace.h"
#include "serve/telemetry.h"
#include "tensor/tiled_sat.h"

namespace one4all {

class FrameEpochManager;

struct FrameEpochManagerOptions {
  /// Newest timestep already synced into generation 0 before the manager
  /// took over (-1: none).
  int64_t initial_latest_t = -1;
  /// Carry-forward retention horizon: when > 0, an epoch that stages
  /// timestep t serves exactly [t - retain_timesteps + 1, t] — older
  /// frames are not carried into the shadow generation, so a continuous
  /// run keeps per-publish copy cost and store size bounded by the
  /// horizon instead of growing with uptime. 0 carries the full served
  /// window forever.
  int64_t retain_timesteps = 0;
  /// Span sink for reclaim events and staged-plane builds; null uses
  /// TraceRecorder::Global(). Must outlive the manager.
  TraceRecorder* trace = nullptr;
};

/// \brief One published epoch: a PredictionStore generation and the
/// newest timestep it serves. Immutable and shared by every pin on it;
/// the last release of its shared_ptr reclaims the generation.
struct Epoch {
  int64_t generation = 0;
  int64_t latest_t = -1;  ///< -1: no timestep yet
};

/// \brief RAII pin on one published epoch. While alive, every frame of
/// that epoch's generation stays readable (its reclaim waits for the
/// last pin to go); generation() is what a query passes as
/// QueryExecutorOptions::generation.
class EpochGuard {
 public:
  EpochGuard() = default;  ///< unpinned guard

  bool pinned() const { return epoch_ != nullptr; }
  /// \brief PredictionStore generation of the pinned epoch.
  int64_t generation() const { return pinned() ? epoch_->generation : 0; }
  /// \brief Newest timestep the pinned epoch serves (-1: none yet).
  int64_t latest_t() const { return pinned() ? epoch_->latest_t : -1; }

  /// \brief Explicit early unpin (also done by the destructor).
  void Release() { epoch_.reset(); }

 private:
  friend class FrameEpochManager;
  explicit EpochGuard(std::shared_ptr<const Epoch> epoch)
      : epoch_(std::move(epoch)) {}

  std::shared_ptr<const Epoch> epoch_;
};

/// \brief Epoch lifecycle over a generation-keyed PredictionStore.
///
/// Thread-safe: Pin() is one atomic load that never waits for a writer's
/// staging, publish or reclaim (concurrent writers are also safe — the
/// last publish wins). Generation 0 is the initial published epoch; its
/// latest_t is whatever the constructor is told was pre-synced there.
/// Guards must not outlive the manager: an epoch's last release
/// reclaims through it. Destroying the manager releases its published
/// epoch, so that generation is reclaimed (and counted) then.
class FrameEpochManager {
 public:
  /// \param store Must outlive the manager.
  /// \param telemetry Optional sink for this manager's per-generation
  /// work: frames staged, SAT planes built, dirty/CoW-shared tiles and
  /// epochs reclaimed. Publishes are not counted here — ShardSet counts
  /// one per barrier flip. Must outlive the manager when non-null.
  explicit FrameEpochManager(PredictionStore* store,
                             ServingTelemetry* telemetry = nullptr,
                             FrameEpochManagerOptions options = {});

  FrameEpochManager(const FrameEpochManager&) = delete;
  FrameEpochManager& operator=(const FrameEpochManager&) = delete;

  /// \brief Move-only handle onto the shadow generation of one epoch
  /// under construction. Frames staged through it are invisible to every
  /// reader until Publish.
  class Staging {
   public:
    Staging() = default;
    /// \brief A dropped, still-valid staging aborts itself (its shadow
    /// frames are deleted, nothing is published).
    ~Staging();
    Staging(Staging&& other) noexcept { *this = std::move(other); }
    Staging& operator=(Staging&& other) noexcept {
      if (this != &other) {
        if (manager_ != nullptr) AbortSelf();
        manager_ = other.manager_;
        generation_ = other.generation_;
        latest_t_ = other.latest_t_;
        trace_ctx_ = other.trace_ctx_;
        other.manager_ = nullptr;
        other.trace_ctx_ = nullptr;
      }
      return *this;
    }
    Staging(const Staging&) = delete;
    Staging& operator=(const Staging&) = delete;

    bool valid() const { return manager_ != nullptr; }
    int64_t generation() const { return generation_; }

    /// \brief Writes one frame, and the summed-area plane the SAT fast
    /// path reads, into the shadow generation. Both land before Publish,
    /// so a pinned epoch has every frame's plane in full, never a torn
    /// one; carry-forward and reclamation treat planes like frames. Dies
    /// if the store refuses the write; fault-tolerant writers use
    /// TryStageFrame.
    void StageFrame(int layer, int64_t t, const Tensor& frame,
                    const TileDirtySet* dirty = nullptr);

    /// \brief Non-fatal staging: surfaces a store write refusal as its
    /// Status instead of dying. On failure the shadow generation may
    /// hold a partial frame set — the caller must Abort (or drop) the
    /// staging, which deletes everything staged so far; since the
    /// generation was never published, no reader can have observed it.
    ///
    /// `dirty` (nullable) is the tile set of `frame` changed vs. the
    /// timestep t-1 already in this generation (the carried-forward
    /// previous publish): when given, the frame is staged copy-on-write
    /// and its SAT plane rebuilt incrementally (dirty tiles + carry
    /// fixup) — bit-identical to a full stage, at the dirty fraction of
    /// the cost. Null or unknown stages everything fresh.
    Status TryStageFrame(int layer, int64_t t, const Tensor& frame,
                         const TileDirtySet* dirty = nullptr);

    /// \brief Attaches the publish attempt's trace context so staged
    /// SAT-plane builds record kBuildSatPlane (full) or kTileSatFixup
    /// (delta) child spans. The context
    /// must outlive this staging; null (the default) records nothing.
    void set_trace(TraceContext* ctx) { trace_ctx_ = ctx; }

   private:
    friend class FrameEpochManager;
    Staging(FrameEpochManager* manager, int64_t generation,
            int64_t carried_latest_t)
        : manager_(manager),
          generation_(generation),
          latest_t_(carried_latest_t) {}

    void AbortSelf();

    FrameEpochManager* manager_ = nullptr;
    int64_t generation_ = 0;
    int64_t latest_t_ = -1;  ///< max staged (or carried) timestep
    TraceContext* trace_ctx_ = nullptr;  ///< not owned; may be null
  };

  /// \brief Opens the shadow generation of the next epoch. With
  /// `carry_forward`, it starts as a full snapshot of the currently
  /// published epoch's frames (raw blob copy), so publishing extends the
  /// served window by the newly staged timesteps; without, the epoch
  /// serves exactly what the writer stages.
  Staging BeginEpoch(bool carry_forward = true);

  /// \brief Atomically makes the staged epoch the published one (one
  /// atomic exchange) and returns a pin on it. Readers pinning from now
  /// on see it; readers already pinned keep their old epoch, whose
  /// generation is dropped from the store when the last of them lets go
  /// (here, when none holds it).
  EpochGuard Publish(Staging&& staging);

  /// \brief Discards a staged epoch without publishing.
  void Abort(Staging&& staging);

  /// \brief Pins the currently published epoch: one atomic load.
  EpochGuard Pin();

  int64_t published_generation() const;
  /// \brief Newest timestep of the published epoch (-1: none).
  int64_t published_latest_t() const;
  /// \brief Epochs still holding frames (published + pinned + staged).
  int64_t live_epochs() const;

 private:
  /// \brief The published handle of `generation`: its last release
  /// calls Reclaim.
  std::shared_ptr<const Epoch> MakeEpoch(int64_t generation,
                                         int64_t latest_t);
  /// \brief Drops a released epoch's frames under a kReclaim root span.
  void Reclaim(int64_t generation);

  PredictionStore* store_;
  ServingTelemetry* telemetry_;
  TraceRecorder* trace_;  ///< never null (options.trace or Global())
  FrameEpochManagerOptions options_;
  std::atomic<int64_t> next_generation_{1};
  std::atomic<int64_t> live_epochs_{1};  ///< generation 0 is live
  /// Read and replaced only through std::atomic_load/atomic_exchange.
  /// Declared last, so the final epoch's reclaim at destruction still
  /// finds every member above alive.
  std::shared_ptr<const Epoch> published_;
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_EPOCH_MANAGER_H_
