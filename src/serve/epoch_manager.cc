#include "serve/epoch_manager.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"

namespace one4all {

// -- EpochGuard -------------------------------------------------------------

EpochGuard::~EpochGuard() { Release(); }

EpochGuard::EpochGuard(EpochGuard&& other) noexcept
    : manager_(other.manager_),
      generation_(other.generation_),
      latest_t_(other.latest_t_) {
  other.manager_ = nullptr;
}

EpochGuard& EpochGuard::operator=(EpochGuard&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    generation_ = other.generation_;
    latest_t_ = other.latest_t_;
    other.manager_ = nullptr;
  }
  return *this;
}

void EpochGuard::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(generation_);
    manager_ = nullptr;
  }
}

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
  if (delta) {
    // Copy-on-write against the carried-forward previous timestep:
    // clean tiles alias (generation, layer, t-1)'s blocks. The store
    // falls back to a full fresh write when that base is absent.
    O4A_RETURN_NOT_OK(manager_->store_->TrySyncFrameDeltaAt(
        generation_, layer, t, frame, t - 1, *dirty, &stats));
  } else {
    O4A_RETURN_NOT_OK(
        manager_->store_->TrySyncFrameAt(generation_, layer, t, frame));
  }
  if (manager_->options_.build_sat_planes) {
    // Derived into the same still-unpublished shadow generation, so no
    // reader can observe the plane before its epoch publishes. A refusal
    // here leaves the frame without its plane — fine, because the only
    // recovery is aborting the staging, which drops both.
    if (delta) {
      ScopedSpan sat_span(trace_ctx_, SpanName::kTileSatFixup,
                          stats.frame_tiles_total -
                              stats.frame_tiles_shared);
      O4A_RETURN_NOT_OK(manager_->store_->TryBuildSatPlaneDeltaAt(
          generation_, layer, t, t - 1, /*pool=*/nullptr, &stats));
    } else {
      ScopedSpan sat_span(trace_ctx_, SpanName::kBuildSatPlane, layer);
      O4A_RETURN_NOT_OK(
          manager_->store_->TryBuildSatPlaneAt(generation_, layer, t));
    }
    if (manager_->telemetry_ != nullptr) {
      manager_->telemetry_->sat_planes_built.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  latest_t_ = std::max(latest_t_, t);
  if (manager_->telemetry_ != nullptr) {
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
      options_(options) {
  O4A_CHECK(store != nullptr);
  epochs_[0] = EpochState{options.initial_latest_t, 0, false};
}

FrameEpochManager::~FrameEpochManager() = default;

FrameEpochManager::Staging FrameEpochManager::BeginEpoch(
    bool carry_forward) {
  int64_t generation = 0;
  int64_t source = -1;
  int64_t carried_latest = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = next_generation_++;
    epochs_[generation] = EpochState{-1, 0, false};
    if (carry_forward) {
      source = published_;
      EpochState& state = epochs_.at(source);
      carried_latest = state.latest_t;
      // Hold the source pinned while its frames are copied so a
      // concurrent publish cannot reclaim it mid-copy.
      ++state.pins;
    }
  }
  if (source >= 0) {
    // +2: after the writer stages the next timestep (carried_latest + 1),
    // the published epoch serves exactly the retain_timesteps newest.
    const int64_t min_t = options_.retain_timesteps > 0
                              ? carried_latest - options_.retain_timesteps + 2
                              : INT64_MIN;
    store_->CopyGeneration(source, generation, min_t);
    Unpin(source);
  }
  return Staging(this, generation, carried_latest);
}

void FrameEpochManager::Publish(Staging&& staging) {
  O4A_CHECK(staging.valid());
  O4A_CHECK(staging.manager_ == this);
  const int64_t generation = staging.generation_;
  const int64_t latest_t = staging.latest_t_;
  staging.manager_ = nullptr;  // consumed; no abort on destruction

  // Enforce the retention horizon exactly, whatever the writer staged
  // (the carry-forward trim in BeginEpoch only bounds the copy for the
  // standard one-timestep-per-epoch cadence). Safe outside the lock:
  // the generation is still unpublished, so no reader can see it.
  if (options_.retain_timesteps > 0 && latest_t >= 0) {
    store_->DropFramesBelow(generation,
                            latest_t - options_.retain_timesteps + 1);
  }

  std::vector<int64_t> reclaimable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EpochState& state = epochs_.at(generation);
    state.latest_t = latest_t;
    EpochState& old = epochs_.at(published_);
    old.retired = true;
    published_ = generation;
    for (auto it = epochs_.begin(); it != epochs_.end();) {
      if (it->second.retired && it->second.pins == 0) {
        reclaimable.push_back(it->first);
        it = epochs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Reclaim(reclaimable);
}

void FrameEpochManager::Abort(Staging&& staging) {
  if (!staging.valid()) return;
  O4A_CHECK(staging.manager_ == this);
  const int64_t generation = staging.generation_;
  staging.manager_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    O4A_CHECK(generation != published_);
    epochs_.erase(generation);
  }
  store_->DropGeneration(generation);
}

EpochGuard FrameEpochManager::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  EpochState& state = epochs_.at(published_);
  ++state.pins;
  return EpochGuard(this, published_, state.latest_t);
}

void FrameEpochManager::Unpin(int64_t generation) {
  std::vector<int64_t> reclaimable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = epochs_.find(generation);
    O4A_CHECK(it != epochs_.end());
    O4A_CHECK_GT(it->second.pins, 0);
    if (--it->second.pins == 0 && it->second.retired) {
      reclaimable.push_back(generation);
      epochs_.erase(it);
    }
  }
  Reclaim(reclaimable);
}

void FrameEpochManager::Reclaim(const std::vector<int64_t>& generations) {
  for (const int64_t generation : generations) {
    // Reclamation is its own root span (epoch category): it can run on a
    // publisher or on whichever reader thread unpins last, so it belongs
    // to no query/publish tree.
    TraceContext ctx = trace_->StartTrace(SpanCategory::kEpoch);
    ScopedSpan reclaim_span(&ctx, SpanName::kReclaim, generation);
    store_->DropGeneration(generation);
    if (telemetry_ != nullptr) {
      telemetry_->epochs_reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

int64_t FrameEpochManager::published_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

int64_t FrameEpochManager::published_latest_t() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.at(published_).latest_t;
}

int64_t FrameEpochManager::live_epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(epochs_.size());
}

}  // namespace one4all
