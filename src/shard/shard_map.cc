#include "shard/shard_map.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/logging.h"

namespace one4all {

ShardMap ShardMap::Create(const Hierarchy* hierarchy, int num_shards) {
  O4A_CHECK(hierarchy != nullptr);
  O4A_CHECK_GE(hierarchy->num_layers(), 1);
  const int64_t height = hierarchy->atomic_height();
  const int n = static_cast<int>(
      std::clamp<int64_t>(num_shards, 1, height));

  ShardMap map;
  map.hierarchy_ = hierarchy;
  map.num_shards_ = n;
  map.band_begin_.resize(static_cast<size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    map.band_begin_[static_cast<size_t>(k)] = k * height / n;
  }

  const int num_layers = hierarchy->num_layers();
  map.slices_.resize(static_cast<size_t>(n) * num_layers);
  for (int k = 0; k < n; ++k) {
    const int64_t band_lo = map.band_begin_[static_cast<size_t>(k)];
    const int64_t band_hi = map.band_begin_[static_cast<size_t>(k) + 1];
    for (int l = 1; l <= num_layers; ++l) {
      const LayerInfo& info = hierarchy->layer(l);
      // Layer-l cell row r anchors at atomic row r * scale; the band owns
      // exactly the rows whose anchor lands in [band_lo, band_hi).
      ShardLayerSlice slice;
      slice.row_begin = std::min(
          (band_lo + info.scale - 1) / info.scale, info.height);
      slice.row_end = std::min(
          (band_hi + info.scale - 1) / info.scale, info.height);
      map.slices_[static_cast<size_t>(k) * num_layers + (l - 1)] = slice;
    }
  }
  return map;
}

int64_t ShardMap::AtomicRowBegin(int shard) const {
  O4A_DCHECK(shard >= 0 && shard < num_shards_);
  return band_begin_[static_cast<size_t>(shard)];
}

int ShardMap::OwnerOfAtomicRow(int64_t r) const {
  O4A_DCHECK(r >= 0 && r < hierarchy_->atomic_height());
  // Bands are near-equal; binary search keeps exactness for the uneven
  // remainder rows without a per-row table.
  const auto it = std::upper_bound(band_begin_.begin(), band_begin_.end(), r);
  return static_cast<int>(it - band_begin_.begin()) - 1;
}

int ShardMap::OwnerOf(const GridId& id) const {
  const int64_t anchor = id.row * hierarchy_->layer(id.layer).scale;
  return OwnerOfAtomicRow(anchor);
}

const ShardLayerSlice& ShardMap::SliceOf(int shard, int layer) const {
  O4A_DCHECK(shard >= 0 && shard < num_shards_);
  O4A_DCHECK(layer >= 1 && layer <= hierarchy_->num_layers());
  return slices_[static_cast<size_t>(shard) * hierarchy_->num_layers() +
                 (layer - 1)];
}

Tensor ShardMap::SliceFrame(int shard, int layer,
                            const Tensor& frame) const {
  const ShardLayerSlice& slice = SliceOf(shard, layer);
  if (slice.empty()) return Tensor();
  O4A_CHECK_EQ(frame.ndim(), 2u);
  O4A_CHECK_EQ(frame.dim(0), hierarchy_->layer(layer).height);
  const int64_t width = frame.dim(1);
  Tensor out({slice.num_rows(), width});
  std::memcpy(out.data(), frame.data() + slice.row_begin * width,
              static_cast<size_t>(slice.num_rows() * width) *
                  sizeof(float));
  return out;
}

std::vector<int64_t> ShardMap::SplitRegionCells(
    const GridMask& region) const {
  O4A_DCHECK(region.height() == hierarchy_->atomic_height());
  // Bands are contiguous row ranges, so each shard's share is one
  // popcount sweep over its rows' words.
  std::vector<int64_t> cells(static_cast<size_t>(num_shards_), 0);
  for (int k = 0; k < num_shards_; ++k) {
    cells[static_cast<size_t>(k)] =
        region.CountRows(band_begin_[static_cast<size_t>(k)],
                         band_begin_[static_cast<size_t>(k) + 1]);
  }
  return cells;
}

std::string ShardMap::ToString() const {
  std::ostringstream out;
  out << num_shards_ << " shards over " << hierarchy_->atomic_height()
      << "x" << hierarchy_->atomic_width() << " atomic rows:";
  for (int k = 0; k < num_shards_; ++k) {
    out << " [" << band_begin_[static_cast<size_t>(k)] << ","
        << band_begin_[static_cast<size_t>(k) + 1] << ")";
  }
  return out.str();
}

}  // namespace one4all
