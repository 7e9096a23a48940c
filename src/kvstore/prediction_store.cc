#include "kvstore/prediction_store.h"

#include <climits>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "obs/trace.h"

namespace one4all {

namespace {

/// Refuses a tiled frame whose sums could round (tensor/tiled_sat.h,
/// kMaxFrameAbsSum): a NaN or infinite cell, or an absolute sum past
/// the ceiling. O(tiles), from the sums the tile copy kept.
Status CheckStorable(const TiledFrame& frame) {
  const double abs_sum = frame.abs_sum();
  if (abs_sum <= kMaxFrameAbsSum) return Status::OK();
  return Status::InvalidArgument(
      "frame refused: absolute sum " + std::to_string(abs_sum) +
      " is non-finite or above the exact-sum ceiling " +
      std::to_string(kMaxFrameAbsSum));
}

}  // namespace

void PredictionStore::SyncFrame(int layer, int64_t t, const Tensor& frame) {
  SyncFrameAt(0, layer, t, frame);
}

void PredictionStore::SetWriteFault(Status fault) {
  O4A_CHECK(!fault.ok()) << "a write fault must be an error Status";
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_ = std::move(fault);
  }
  fault_active_.store(true, std::memory_order_release);
}

void PredictionStore::ClearWriteFault() {
  fault_active_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_ = Status::OK();
}

Status PredictionStore::WriteFault() const {
  if (!fault_active_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(fault_mu_);
  // A Clear between the flag load and the lock leaves fault_ OK, which
  // is exactly the right answer then.
  return fault_;
}

bool PredictionStore::SnapshotEntry(const Key& key, Entry* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void PredictionStore::SyncFrameAt(int64_t generation, int layer, int64_t t,
                                  const Tensor& frame) {
  const Status status = TrySyncFrameAt(generation, layer, t, frame);
  O4A_CHECK(status.ok()) << "prediction store refused frame write: "
                         << status.ToString();
}

Status PredictionStore::TrySyncFrameAt(int64_t generation, int layer,
                                       int64_t t, const Tensor& frame,
                                       TraceContext* trace) {
  O4A_RETURN_NOT_OK(WriteFault());
  O4A_CHECK_EQ(frame.ndim(), 2u);
  // Tiling and the plane build happen outside the lock; the map
  // mutation is a pointer swap.
  Entry entry;
  entry.stored.frame =
      std::make_shared<const TiledFrame>(TiledFrame::FromTensor(frame));
  O4A_RETURN_NOT_OK(CheckStorable(*entry.stored.frame));
  {
    ScopedSpan sat_span(trace, SpanName::kBuildSatPlane, layer);
    entry.stored.plane = std::make_shared<const TiledSatPlane>(
        TiledSatPlane::Build(*entry.stored.frame));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[Key{generation, layer, t}] = std::move(entry);
  return Status::OK();
}

Status PredictionStore::TrySyncFrameDeltaAt(int64_t generation, int layer,
                                            int64_t t, const Tensor& frame,
                                            int64_t base_t,
                                            const TileDirtySet& dirty,
                                            StageStats* stats,
                                            TraceContext* trace) {
  O4A_RETURN_NOT_OK(WriteFault());
  O4A_CHECK_EQ(frame.ndim(), 2u);
  Entry base;
  const bool have_base = SnapshotEntry(Key{generation, layer, base_t}, &base);
  int64_t shared = 0;
  Entry entry;
  entry.stored.frame = std::make_shared<const TiledFrame>(
      have_base
          ? TiledFrame::FromDelta(frame, *base.stored.frame, dirty, &shared)
          : TiledFrame::FromTensor(frame));
  const TiledFrame& tiled = *entry.stored.frame;
  O4A_RETURN_NOT_OK(CheckStorable(tiled));
  const int64_t total = tiled.tiles_h() * tiled.tiles_w();
  int64_t reused = 0;
  {
    ScopedSpan sat_span(trace, SpanName::kTileSatFixup, total - shared);
    entry.stored.plane = std::make_shared<const TiledSatPlane>(
        have_base ? TiledSatPlane::BuildDelta(tiled, *base.stored.plane,
                                              dirty, &reused)
                  : TiledSatPlane::Build(tiled));
  }
  if (stats != nullptr) {
    stats->frame_tiles_total = total;
    stats->frame_tiles_shared = shared;
    stats->plane_tiles_reused = reused;
  }
  if (!dirty.empty()) {
    entry.dirty = std::make_shared<const TileDirtySet>(dirty);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[Key{generation, layer, t}] = std::move(entry);
  return Status::OK();
}

Result<PredictionStore::StoredFrame> PredictionStore::GetStoredFrameAt(
    int64_t generation, int layer, int64_t t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(Key{generation, layer, t});
  if (it == entries_.end()) {
    return Status::NotFound("no prediction frame for key");
  }
  return it->second.stored;
}

Result<std::shared_ptr<const TiledFrame>> PredictionStore::GetTiledFrameAt(
    int64_t generation, int layer, int64_t t) const {
  O4A_ASSIGN_OR_RETURN(StoredFrame stored,
                       GetStoredFrameAt(generation, layer, t));
  return std::move(stored.frame);
}

Result<std::shared_ptr<const TiledSatPlane>>
PredictionStore::GetTiledSatPlaneAt(int64_t generation, int layer,
                                    int64_t t) const {
  O4A_ASSIGN_OR_RETURN(StoredFrame stored,
                       GetStoredFrameAt(generation, layer, t));
  return std::move(stored.plane);
}

std::shared_ptr<const TileDirtySet> PredictionStore::GetDirtyAt(
    int64_t generation, int layer, int64_t t) const {
  Entry entry;
  if (!SnapshotEntry(Key{generation, layer, t}, &entry)) return nullptr;
  return entry.dirty;
}

float PredictionStore::GetValue(int layer, int64_t t, int64_t row,
                                int64_t col) const {
  auto value = TryGetValue(layer, t, row, col);
  O4A_CHECK(value.ok()) << "missing prediction frame layer=" << layer
                        << " t=" << t << ": " << value.status().ToString();
  return *value;
}

Result<float> PredictionStore::TryGetValue(int layer, int64_t t, int64_t row,
                                           int64_t col) const {
  return TryGetValueAt(0, layer, t, row, col);
}

Result<float> PredictionStore::TryGetValueAt(int64_t generation, int layer,
                                             int64_t t, int64_t row,
                                             int64_t col) const {
  O4A_ASSIGN_OR_RETURN(std::shared_ptr<const TiledFrame> frame,
                       GetTiledFrameAt(generation, layer, t));
  if (row < 0 || row >= frame->height() || col < 0 ||
      col >= frame->width()) {
    return Status::OutOfRange("grid cell outside prediction frame");
  }
  return frame->at(row, col);
}

bool PredictionStore::HasFrame(int layer, int64_t t) const {
  return HasFrameAt(0, layer, t);
}

bool PredictionStore::HasFrameAt(int64_t generation, int layer,
                                 int64_t t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.count(Key{generation, layer, t}) != 0;
}

int64_t PredictionStore::CopyGeneration(int64_t from, int64_t to,
                                        int64_t min_t) {
  O4A_CHECK(from != to);
  // Snapshot, then insert: iterating and mutating the same map under one
  // lock would invalidate nothing (std::map), but two passes keep the
  // exclusive section minimal.
  std::vector<std::pair<Key, Entry>> copies;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (auto it = entries_.lower_bound(Key{from, INT_MIN, INT64_MIN});
         it != entries_.end() && std::get<0>(it->first) == from; ++it) {
      if (std::get<2>(it->first) < min_t) continue;
      copies.emplace_back(
          Key{to, std::get<1>(it->first), std::get<2>(it->first)},
          it->second);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, entry] : copies) entries_[key] = std::move(entry);
  return static_cast<int64_t>(copies.size());
}

int64_t PredictionStore::DropGeneration(int64_t generation) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto begin = entries_.lower_bound(Key{generation, INT_MIN, INT64_MIN});
  auto end = entries_.lower_bound(Key{generation + 1, INT_MIN, INT64_MIN});
  const int64_t dropped = std::distance(begin, end);
  entries_.erase(begin, end);
  return dropped;
}

int64_t PredictionStore::DropFramesBelow(int64_t generation, int64_t min_t) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  int64_t dropped = 0;
  auto it = entries_.lower_bound(Key{generation, INT_MIN, INT64_MIN});
  while (it != entries_.end() && std::get<0>(it->first) == generation) {
    if (std::get<2>(it->first) < min_t) {
      ++dropped;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

int64_t PredictionStore::NumFramesAt(int64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return std::distance(
      entries_.lower_bound(Key{generation, INT_MIN, INT64_MIN}),
      entries_.lower_bound(Key{generation + 1, INT_MIN, INT64_MIN}));
}

}  // namespace one4all
