#include "serve/epoch_manager.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"

namespace one4all {

// -- FrameEpochManager::Staging ---------------------------------------------

FrameEpochManager::Staging::~Staging() {
  if (manager_ != nullptr) AbortSelf();
}

void FrameEpochManager::Staging::AbortSelf() {
  FrameEpochManager* manager = manager_;
  manager_ = nullptr;
  manager->Abort(Staging(manager, generation_, latest_t_));
}

void FrameEpochManager::Staging::StageFrame(int layer, int64_t t,
                                            const Tensor& frame,
                                            const TileDirtySet* dirty) {
  const Status status = TryStageFrame(layer, t, frame, dirty);
  O4A_CHECK(status.ok()) << "epoch staging failed: " << status.ToString();
}

Status FrameEpochManager::Staging::TryStageFrame(int layer, int64_t t,
                                                 const Tensor& frame,
                                                 const TileDirtySet* dirty) {
  O4A_CHECK(valid());
  const bool delta = dirty != nullptr && !dirty->empty();
  PredictionStore::StageStats stats;
  // Frame and plane land together in the still-unpublished shadow
  // generation, so no reader can observe either before its epoch
  // publishes. A delta stage is copy-on-write against the carried-forward
  // previous timestep: clean tiles alias (generation, layer, t-1)'s
  // blocks, and the store falls back to a full fresh write when that
  // base is absent.
  O4A_RETURN_NOT_OK(
      delta ? manager_->store_->TrySyncFrameDeltaAt(generation_, layer, t,
                                                    frame, t - 1, *dirty,
                                                    &stats, trace_ctx_)
            : manager_->store_->TrySyncFrameAt(generation_, layer, t, frame,
                                               trace_ctx_));
  latest_t_ = std::max(latest_t_, t);
  if (manager_->telemetry_ != nullptr) {
    manager_->telemetry_->sat_planes_built.fetch_add(
        1, std::memory_order_relaxed);
    manager_->telemetry_->frames_staged.fetch_add(
        1, std::memory_order_relaxed);
    if (delta) {
      manager_->telemetry_->stage_dirty_tiles.fetch_add(
          stats.frame_tiles_total - stats.frame_tiles_shared,
          std::memory_order_relaxed);
      manager_->telemetry_->cow_shared_tiles.fetch_add(
          stats.frame_tiles_shared + stats.plane_tiles_reused,
          std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

// -- FrameEpochManager ------------------------------------------------------

FrameEpochManager::FrameEpochManager(PredictionStore* store,
                                     ServingTelemetry* telemetry,
                                     FrameEpochManagerOptions options)
    : store_(store),
      telemetry_(telemetry),
      trace_(options.trace != nullptr ? options.trace
                                      : &TraceRecorder::Global()),
      options_(options),
      published_(MakeEpoch(0, options.initial_latest_t)) {
  O4A_CHECK(store != nullptr);
}

FrameEpochManager::Staging FrameEpochManager::BeginEpoch(
    bool carry_forward) {
  const int64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  live_epochs_.fetch_add(1, std::memory_order_relaxed);
  int64_t carried_latest = -1;
  if (carry_forward) {
    // The held pointer keeps the source generation from being reclaimed
    // while its frames are copied, whatever a concurrent publish does.
    const std::shared_ptr<const Epoch> source = std::atomic_load(&published_);
    carried_latest = source->latest_t;
    // +2: after the writer stages the next timestep (carried_latest + 1),
    // the published epoch serves exactly the retain_timesteps newest.
    const int64_t min_t = options_.retain_timesteps > 0
                              ? carried_latest - options_.retain_timesteps + 2
                              : INT64_MIN;
    store_->CopyGeneration(source->generation, generation, min_t);
  }
  return Staging(this, generation, carried_latest);
}

EpochGuard FrameEpochManager::Publish(Staging&& staging) {
  O4A_CHECK(staging.valid());
  O4A_CHECK(staging.manager_ == this);
  const int64_t generation = staging.generation_;
  const int64_t latest_t = staging.latest_t_;
  staging.manager_ = nullptr;  // consumed; no abort on destruction

  // Enforce the retention horizon exactly, whatever the writer staged
  // (the carry-forward trim in BeginEpoch only bounds the copy for the
  // standard one-timestep-per-epoch cadence). The generation is still
  // unpublished, so no reader can see it.
  if (options_.retain_timesteps > 0 && latest_t >= 0) {
    store_->DropFramesBelow(generation,
                            latest_t - options_.retain_timesteps + 1);
  }

  std::shared_ptr<const Epoch> epoch = MakeEpoch(generation, latest_t);
  // The superseded epoch comes back from the exchange and is released at
  // the end of this statement: when no reader still holds it, that
  // release is its reclaim.
  std::atomic_exchange(&published_, epoch);
  return EpochGuard(std::move(epoch));
}

void FrameEpochManager::Abort(Staging&& staging) {
  if (!staging.valid()) return;
  O4A_CHECK(staging.manager_ == this);
  staging.manager_ = nullptr;
  store_->DropGeneration(staging.generation_);
  live_epochs_.fetch_sub(1, std::memory_order_relaxed);
}

EpochGuard FrameEpochManager::Pin() {
  return EpochGuard(std::atomic_load(&published_));
}

std::shared_ptr<const Epoch> FrameEpochManager::MakeEpoch(int64_t generation,
                                                          int64_t latest_t) {
  return std::shared_ptr<const Epoch>(
      new Epoch{generation, latest_t}, [this](const Epoch* epoch) {
        Reclaim(epoch->generation);
        delete epoch;
      });
}

void FrameEpochManager::Reclaim(int64_t generation) {
  // Reclamation is its own root span (epoch category): it runs on a
  // publisher or on whichever reader releases last, so it belongs to no
  // query/publish tree.
  TraceContext ctx = trace_->StartTrace(SpanCategory::kEpoch);
  ScopedSpan reclaim_span(&ctx, SpanName::kReclaim, generation);
  store_->DropGeneration(generation);
  live_epochs_.fetch_sub(1, std::memory_order_relaxed);
  if (telemetry_ != nullptr) {
    telemetry_->epochs_reclaimed.fetch_add(1, std::memory_order_relaxed);
  }
}

int64_t FrameEpochManager::published_generation() const {
  return std::atomic_load(&published_)->generation;
}

int64_t FrameEpochManager::published_latest_t() const {
  return std::atomic_load(&published_)->latest_t;
}

int64_t FrameEpochManager::live_epochs() const {
  return live_epochs_.load(std::memory_order_relaxed);
}

}  // namespace one4all
