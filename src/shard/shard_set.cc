#include "shard/shard_set.h"

#include <string>
#include <thread>
#include <utility>

#include "core/logging.h"

namespace one4all {

Shard::Shard(const ShardSetOptions& options, ServingTelemetry* telemetry)
    : epochs(&store, telemetry,
             FrameEpochManagerOptions{-1, options.retain_timesteps,
                                      options.trace}),
      cache(options.cache) {}

ShardSet::ShardSet(const Hierarchy* hierarchy, int num_shards,
                   ServingTelemetry* telemetry, ShardSetOptions options)
    : map_(ShardMap::Create(hierarchy, num_shards)),
      telemetry_(telemetry),
      options_(options),
      birth_(std::chrono::steady_clock::now()) {
  shards_.reserve(static_cast<size_t>(map_.num_shards()));
  for (int k = 0; k < map_.num_shards(); ++k) {
    shards_.push_back(std::make_unique<Shard>(options_, telemetry_));
  }
  if (telemetry_ == nullptr) return;
  MetricsRegistry& registry = telemetry_->registry();
  for (int k = 0; k < map_.num_shards(); ++k) {
    const std::string labels = "shard=\"" + std::to_string(k) + "\"";
    Shard& s = shard(k);
    registry.RegisterCounter("one4all_shard_epochs_published",
                             "Barrier flips this shard took part in",
                             labels, &s.epochs_published);
    registry.RegisterCounter("one4all_shard_frames_staged",
                             "Band slices staged into this shard",
                             labels, &s.frames_staged);
    registry.RegisterCounter(
        "one4all_shard_terms_evaluated",
        "Exact-loop term-cell reads this shard served", labels,
        &s.terms_evaluated);
    registry.RegisterCallbackGauge(
        "one4all_shard_publish_lag_ms",
        "Milliseconds since this shard's last epoch flip", labels,
        [this, k] { return PublishLagMs(k); });
  }
  registry.RegisterCallbackGauge(
      "one4all_shard_pin_retries",
      "Cross-shard pins that retried after racing a barrier flip", "",
      [this] { return static_cast<double>(pin_retries()); });
  registry.RegisterCallbackGauge(
      "one4all_shard_torn_pins",
      "Cross-shard pins whose shards disagreed on latest_t (must be 0)",
      "", [this] { return static_cast<double>(torn_pins()); });
}

Status ShardSet::StageAndPublish(int64_t t,
                                 const std::vector<Tensor>& frames,
                                 const DirtyTileSets* dirty,
                                 bool carry_forward, TraceContext* trace) {
  const int n = num_shards();
  // Phase 1: stage every shard's band slices into per-shard shadow
  // generations. Nothing is visible to readers yet, so a refusal on any
  // shard aborts them all (Staging self-aborts on destruction) and the
  // whole timestep retries — no shard ever publishes a timestep its
  // siblings failed to stage.
  std::vector<FrameEpochManager::Staging> stagings;
  stagings.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    stagings.push_back(shard(k).epochs.BeginEpoch(carry_forward));
    stagings.back().set_trace(trace);
  }
  std::vector<int64_t> staged_per_shard(static_cast<size_t>(n), 0);
  int64_t staged = 0;
  Status status;
  {
    ScopedSpan stage_span(trace, SpanName::kStageFrames);
    for (int l = 1; l <= static_cast<int>(frames.size()) && status.ok();
         ++l) {
      const TileDirtySet* layer_dirty =
          dirty != nullptr && static_cast<size_t>(l - 1) < dirty->size()
              ? &(*dirty)[static_cast<size_t>(l) - 1]
              : nullptr;
      for (int k = 0; k < n && status.ok(); ++k) {
        const ShardLayerSlice& slice = map_.SliceOf(k, l);
        if (slice.empty()) continue;
        // Re-slice the full-frame dirty set to this shard's band so the
        // shard delta-stages against its own band-local prior timestep.
        TileDirtySet band_dirty;
        const TileDirtySet* band_dirty_ptr = nullptr;
        if (layer_dirty != nullptr && !layer_dirty->empty()) {
          band_dirty = layer_dirty->SliceRows(slice.row_begin, slice.row_end);
          band_dirty_ptr = &band_dirty;
        }
        status = stagings[static_cast<size_t>(k)].TryStageFrame(
            l, t, map_.SliceFrame(k, l, frames[static_cast<size_t>(l) - 1]),
            band_dirty_ptr);
        if (status.ok()) {
          ++staged_per_shard[static_cast<size_t>(k)];
          ++staged;
        }
      }
    }
    stage_span.set_arg(staged);
  }
  if (!status.ok()) return status;

  // Phase 2: flip every shard inside the seqlock window. Readers that
  // load an odd version — or whose version changed across their pin
  // sweep — retry, so no query can hold shard A's new epoch next to
  // shard B's old one.
  {
    ScopedSpan flip_span(trace, SpanName::kPublish, t);
    version_.fetch_add(1, std::memory_order_acq_rel);
    const int64_t now = NowNanos();
    for (int k = 0; k < n; ++k) {
      Shard& s = shard(k);
      s.epochs.Publish(std::move(stagings[static_cast<size_t>(k)]));
      s.epochs_published.fetch_add(1, std::memory_order_relaxed);
      s.frames_staged.fetch_add(staged_per_shard[static_cast<size_t>(k)],
                                std::memory_order_relaxed);
      s.last_publish_nanos.store(now, std::memory_order_release);
    }
    published_t_.store(t, std::memory_order_release);
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  if (telemetry_ != nullptr) {
    // One epoch per flip, not per shard. Frames, planes, tiles and
    // reclaims are counted by each shard's epoch manager, in staged-slice
    // and per-shard-generation units; the per-shard breakdown lives in
    // the one4all_shard_* metrics registered above.
    telemetry_->epochs_published.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

ShardPinSet ShardSet::PinAll(TraceContext* trace) {
  ScopedSpan barrier_span(trace, SpanName::kBarrierWait);
  ShardPinSet pins;
  int64_t retries = 0;
  for (;;) {
    const uint64_t v1 = version_.load(std::memory_order_acquire);
    if ((v1 & 1) == 0) {
      pins.guards_.clear();
      pins.guards_.reserve(shards_.size());
      for (const auto& s : shards_) {
        pins.guards_.push_back(s->epochs.Pin());
      }
      if (version_.load(std::memory_order_acquire) == v1) {
        // Stable window. The coherence check is belt-and-braces: under
        // a correct seqlock it cannot fail, and if it ever does the
        // tear is counted and the pin retried instead of handed out.
        bool coherent = true;
        for (const EpochGuard& guard : pins.guards_) {
          if (guard.latest_t() != pins.guards_.front().latest_t()) {
            coherent = false;
            break;
          }
        }
        if (coherent) {
          pins.latest_t_ = pins.guards_.front().latest_t();
          break;
        }
        torn_pins_.fetch_add(1, std::memory_order_relaxed);
      }
      pins.guards_.clear();
    }
    ++retries;
    std::this_thread::yield();
  }
  if (retries > 0) {
    pin_retries_.fetch_add(retries, std::memory_order_relaxed);
    barrier_span.set_arg(retries);
  }
  return pins;
}

bool ShardSet::ServesTimestep(const ShardPinSet& pins, int64_t t) const {
  if (t < 0 || t > pins.latest_t()) return false;
  // Every layer of a timestep is staged, carried and dropped together,
  // and every shard owns at least one atomic row, so each shard's
  // layer-1 band frame stands for the whole timestep.
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!shards_[k]->store.HasFrameAt(pins.generation(static_cast<int>(k)),
                                      1, t)) {
      return false;
    }
  }
  return true;
}

int64_t ShardSet::max_live_epochs() const {
  int64_t live = 0;
  for (const auto& s : shards_) {
    live = std::max(live, s->epochs.live_epochs());
  }
  return live;
}

bool ShardSet::Consistent() const {
  if (torn_pins() != 0) return false;
  const int64_t t = published_latest_t();
  for (const auto& s : shards_) {
    if (s->epochs.published_latest_t() != t) return false;
  }
  return true;
}

double ShardSet::PublishLagMs(int shard_index) const {
  const int64_t last = shard(shard_index)
                           .last_publish_nanos.load(std::memory_order_acquire);
  return static_cast<double>(NowNanos() - std::max<int64_t>(last, 0)) / 1e6;
}

void ShardSet::SetWriteFault(Status fault) {
  for (const auto& s : shards_) s->store.SetWriteFault(fault);
}

void ShardSet::ClearWriteFault() {
  for (const auto& s : shards_) s->store.ClearWriteFault();
}

ResolvedQueryCacheStats ShardSet::CacheStats() const {
  ResolvedQueryCacheStats total;
  for (const auto& s : shards_) {
    const ResolvedQueryCacheStats stats = s->cache.Stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
    total.invalidations += stats.invalidations;
    total.size += stats.size;
  }
  return total;
}

void ShardSet::InvalidateCaches() {
  for (const auto& s : shards_) s->cache.Invalidate();
}

}  // namespace one4all
