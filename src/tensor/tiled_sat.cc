#include "tensor/tiled_sat.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/thread_pool.h"
#include "tensor/gemm.h"

namespace one4all {

namespace {

// Below this many cells, per-tile plane builds run sequentially — the
// frames are too small to pay pool overhead.
constexpr int64_t kParallelThresholdCells = 1 << 15;

int64_t TilesFor(int64_t n) {
  return (n + kSatTileSize - 1) / kSatTileSize;
}

/// Bit i set iff cell i of the two kSatTileSize-cell spans differs. Cells
/// compare by bit pattern, as memcmp does (so -0.0 vs 0.0 and NaN
/// payloads count as changes).
uint32_t ChangedCellBits(const float* a, const float* b) {
  uint32_t changed = 0;
  for (int64_t i = 0; i < kSatTileSize; ++i) {
    uint32_t va, vb;
    std::memcpy(&va, a + i, sizeof(va));
    std::memcpy(&vb, b + i, sizeof(vb));
    changed |= static_cast<uint32_t>(va != vb) << i;
  }
  return changed;
}

/// Copies tile (i, j) of the row-major [h, w] `src` as Snap(cell) into a
/// fresh th x tw block and returns its sum of |cell|, in the same pass.
/// The sum runs over eight lanes so the loop vectorises; the cells are
/// multiples of kCellQuantum, so any order gives the same bits.
std::shared_ptr<const std::vector<float>> CopyTile(const float* src,
                                                   int64_t w, int64_t i,
                                                   int64_t j, int64_t th,
                                                   int64_t tw,
                                                   double* abs_sum) {
  auto block = std::make_shared<std::vector<float>>(
      static_cast<size_t>(th * tw));
  double lanes[8] = {};
  for (int64_t r = 0; r < th; ++r) {
    const float* row = src + (i * kSatTileSize + r) * w + j * kSatTileSize;
    float* out = block->data() + r * tw;
    int64_t c = 0;
    for (; c + 8 <= tw; c += 8) {
      for (int l = 0; l < 8; ++l) {
        out[c + l] = Snap(row[c + l]);
        lanes[l] += std::fabs(static_cast<double>(out[c + l]));
      }
    }
    for (; c < tw; ++c) {
      out[c] = Snap(row[c]);
      lanes[0] += std::fabs(static_cast<double>(out[c]));
    }
  }
  *abs_sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
             ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  return block;
}

}  // namespace

// ---------------------------------------------------------------------
// TileDirtySet

TileDirtySet::TileDirtySet(int64_t h, int64_t w, bool track_cells)
    : h_(h), w_(w), tiles_h_(TilesFor(h)), tiles_w_(TilesFor(w)),
      bits_(static_cast<size_t>(tiles_h_ * tiles_w_), 0) {
  if (track_cells && h > 0 && w > 0) {
    words_per_row_ = (w + 63) / 64;
    cells_.assign(static_cast<size_t>(h * words_per_row_), 0);
  }
}

TileDirtySet TileDirtySet::AllDirty(int64_t h, int64_t w) {
  TileDirtySet set(h, w);
  std::fill(set.bits_.begin(), set.bits_.end(), 1);
  return set;
}

static_assert(kSatTileSize == 32,
              "a tile row span packs into one 32-bit changed-cell mask");

void TileDirtySet::MarkTileRowSpan(int64_t r, int64_t c0, uint32_t changed) {
  bits_[static_cast<size_t>((r / kSatTileSize) * tiles_w_ +
                            c0 / kSatTileSize)] = 1;
  // A 32-cell span starting at a multiple of 32 sits inside one word.
  cells_[static_cast<size_t>(r * words_per_row_ + (c0 >> 6))] |=
      uint64_t{changed} << (c0 & 63);
}

void TileDirtySet::MarkRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min(r1, h_);
  c1 = std::min(c1, w_);
  if (r0 >= r1 || c0 >= c1) return;
  const int64_t i1 = (r1 - 1) / kSatTileSize;
  const int64_t j1 = (c1 - 1) / kSatTileSize;
  for (int64_t i = r0 / kSatTileSize; i <= i1; ++i) {
    for (int64_t j = c0 / kSatTileSize; j <= j1; ++j) MarkTile(i, j);
  }
}

int64_t TileDirtySet::CountDirty() const {
  int64_t n = 0;
  for (uint8_t b : bits_) n += b;
  return n;
}

bool TileDirtySet::IntersectsRect(int64_t r0, int64_t c0, int64_t r1,
                                  int64_t c1) const {
  if (empty()) return true;  // unknown: assume change
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min(r1, h_);
  c1 = std::min(c1, w_);
  if (r0 >= r1 || c0 >= c1) return false;
  const int64_t i1 = (r1 - 1) / kSatTileSize;
  const int64_t j1 = (c1 - 1) / kSatTileSize;
  for (int64_t i = r0 / kSatTileSize; i <= i1; ++i) {
    for (int64_t j = c0 / kSatTileSize; j <= j1; ++j) {
      if (dirty(i, j)) return true;
    }
  }
  return false;
}

bool TileDirtySet::CellsIntersectRect(int64_t r0, int64_t c0, int64_t r1,
                                      int64_t c1) const {
  // Tile bits first: a rect that misses every dirty tile misses every
  // changed cell, and an unknown or tile-only set answers here.
  if (!IntersectsRect(r0, c0, r1, c1)) return false;
  if (!has_cells()) return true;
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min(r1, h_);
  c1 = std::min(c1, w_);
  // Per row, test the rect's column span word by word: the first and
  // last words keep only the span's bits.
  const int64_t w0 = c0 >> 6, w1 = (c1 - 1) >> 6;
  const uint64_t first = ~uint64_t{0} << (c0 & 63);
  const uint64_t last = ~uint64_t{0} >> (63 - ((c1 - 1) & 63));
  for (int64_t r = r0; r < r1; ++r) {
    const uint64_t* row = cells_.data() + r * words_per_row_;
    for (int64_t wi = w0; wi <= w1; ++wi) {
      uint64_t word = row[wi];
      if (wi == w0) word &= first;
      if (wi == w1) word &= last;
      if (word != 0) return true;
    }
  }
  return false;
}

TileDirtySet TileDirtySet::SliceRows(int64_t row0, int64_t row1) const {
  if (empty()) return TileDirtySet();
  row0 = std::max<int64_t>(row0, 0);
  row1 = std::min(row1, h_);
  if (row0 >= row1) return TileDirtySet();
  TileDirtySet band(row1 - row0, w_);
  for (int64_t bi = 0; bi < band.tiles_h_; ++bi) {
    // Global rows covered by band tile row bi (band rows are full-width,
    // so tile columns line up one-to-one).
    const int64_t g0 = row0 + bi * kSatTileSize;
    const int64_t g1 = row0 + std::min((bi + 1) * kSatTileSize, band.h_);
    const int64_t i1 = (g1 - 1) / kSatTileSize;
    for (int64_t j = 0; j < tiles_w_; ++j) {
      for (int64_t i = g0 / kSatTileSize; i <= i1; ++i) {
        if (dirty(i, j)) {
          band.MarkTile(bi, j);
          break;
        }
      }
    }
  }
  return band;
}

// ---------------------------------------------------------------------
// TiledFrame

TiledFrame TiledFrame::FromTensor(const Tensor& frame) {
  O4A_CHECK_EQ(frame.ndim(), 2u);
  TiledFrame out;
  out.h_ = frame.dim(0);
  out.w_ = frame.dim(1);
  out.tiles_h_ = TilesFor(out.h_);
  out.tiles_w_ = TilesFor(out.w_);
  const size_t num_tiles = static_cast<size_t>(out.tiles_h_ * out.tiles_w_);
  out.blocks_.resize(num_tiles);
  out.abs_sums_.resize(num_tiles);
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const size_t k = static_cast<size_t>(i * out.tiles_w_ + j);
      out.blocks_[k] = CopyTile(frame.data(), out.w_, i, j, out.tile_rows(i),
                                out.tile_cols(j), &out.abs_sums_[k]);
    }
  }
  out.RefreshTilePointers();
  return out;
}

TiledFrame TiledFrame::FromDelta(const Tensor& frame, const TiledFrame& base,
                                 const TileDirtySet& dirty,
                                 int64_t* shared_tiles) {
  if (shared_tiles != nullptr) *shared_tiles = 0;
  O4A_CHECK_EQ(frame.ndim(), 2u);
  const int64_t h = frame.dim(0), w = frame.dim(1);
  if (base.h_ != h || base.w_ != w || dirty.empty() ||
      dirty.height() != h || dirty.width() != w) {
    return FromTensor(frame);
  }
  TiledFrame out;
  out.h_ = h;
  out.w_ = w;
  out.tiles_h_ = base.tiles_h_;
  out.tiles_w_ = base.tiles_w_;
  out.blocks_.resize(base.blocks_.size());
  out.abs_sums_.resize(base.blocks_.size());
  int64_t shared = 0;
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const size_t k = static_cast<size_t>(i * out.tiles_w_ + j);
      if (!dirty.dirty(i, j)) {
        out.blocks_[k] = base.blocks_[k];
        out.abs_sums_[k] = base.abs_sums_[k];
        ++shared;
        continue;
      }
      out.blocks_[k] = CopyTile(frame.data(), w, i, j, out.tile_rows(i),
                                out.tile_cols(j), &out.abs_sums_[k]);
    }
  }
  out.RefreshTilePointers();
  if (shared_tiles != nullptr) *shared_tiles = shared;
  return out;
}

double TiledFrame::abs_sum() const {
  double sum = 0.0;
  for (const double tile : abs_sums_) sum += tile;
  return sum;
}

void TiledFrame::RefreshTilePointers() {
  tile_data_.resize(blocks_.size());
  for (size_t k = 0; k < blocks_.size(); ++k) {
    tile_data_[k] = blocks_[k]->data();
  }
}

Tensor TiledFrame::Materialize() const {
  Tensor out({h_, w_});
  float* dst = out.data();
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      const float* src = block(i, j);
      for (int64_t r = 0; r < th; ++r) {
        std::memcpy(dst + (i * kSatTileSize + r) * w_ + j * kSatTileSize,
                    src + r * tw, static_cast<size_t>(tw) * sizeof(float));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// TiledSatPlane

namespace {

// Inclusive 2-D prefix of one tile: row-wise running sum, then add the
// cell above. Shared by the full and incremental builders so the two
// produce bit-identical locals from identical tile data.
std::shared_ptr<const std::vector<double>> BuildLocal(const TiledFrame& frame,
                                                      int64_t i, int64_t j) {
  const int64_t th = frame.tile_rows(i);
  const int64_t tw = frame.tile_cols(j);
  auto local =
      std::make_shared<std::vector<double>>(static_cast<size_t>(th * tw));
  const float* src = frame.block(i, j);
  double* dst = local->data();
  for (int64_t r = 0; r < th; ++r) {
    double running = 0.0;
    for (int64_t c = 0; c < tw; ++c) {
      running += static_cast<double>(src[r * tw + c]);
      dst[r * tw + c] = running + (r > 0 ? dst[(r - 1) * tw + c] : 0.0);
    }
  }
  return local;
}

}  // namespace

TiledSatPlane TiledSatPlane::Build(const TiledFrame& frame) {
  TiledSatPlane out;
  out.h_ = frame.height();
  out.w_ = frame.width();
  out.tiles_h_ = frame.tiles_h();
  out.tiles_w_ = frame.tiles_w();
  const int64_t num_tiles = out.tiles_h_ * out.tiles_w_;
  out.local_.resize(static_cast<size_t>(num_tiles));
  const auto build_tiles = [&](int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      out.local_[static_cast<size_t>(k)] =
          BuildLocal(frame, k / out.tiles_w_, k % out.tiles_w_);
    }
  };
  ThreadPool* resolved = out.h_ * out.w_ >= kParallelThresholdCells
                             ? ResolveComputePool()
                             : nullptr;
  if (resolved != nullptr) {
    resolved->ParallelFor(num_tiles, build_tiles);
  } else {
    build_tiles(0, num_tiles);
  }
  out.RebuildAggregates();
  out.RefreshLocalPointers();
  return out;
}

TiledSatPlane TiledSatPlane::BuildDelta(const TiledFrame& frame,
                                        const TiledSatPlane& base,
                                        const TileDirtySet& dirty,
                                        int64_t* reused_tiles) {
  if (reused_tiles != nullptr) *reused_tiles = 0;
  if (base.h_ != frame.height() || base.w_ != frame.width() ||
      dirty.empty() || dirty.height() != frame.height() ||
      dirty.width() != frame.width()) {
    return Build(frame);
  }
  TiledSatPlane out;
  out.h_ = frame.height();
  out.w_ = frame.width();
  out.tiles_h_ = frame.tiles_h();
  out.tiles_w_ = frame.tiles_w();
  out.local_.resize(base.local_.size());
  std::vector<int64_t> dirty_tiles;
  int64_t reused = 0;
  for (int64_t i = 0; i < out.tiles_h_; ++i) {
    for (int64_t j = 0; j < out.tiles_w_; ++j) {
      const size_t k = static_cast<size_t>(i * out.tiles_w_ + j);
      if (dirty.dirty(i, j)) {
        dirty_tiles.push_back(static_cast<int64_t>(k));
      } else {
        out.local_[k] = base.local_[k];
        ++reused;
      }
    }
  }
  const auto rebuild = [&](int64_t begin, int64_t end) {
    for (int64_t d = begin; d < end; ++d) {
      const int64_t k = dirty_tiles[static_cast<size_t>(d)];
      out.local_[static_cast<size_t>(k)] =
          BuildLocal(frame, k / out.tiles_w_, k % out.tiles_w_);
    }
  };
  const int64_t num_dirty = static_cast<int64_t>(dirty_tiles.size());
  ThreadPool* resolved =
      num_dirty * kSatTileSize * kSatTileSize >= kParallelThresholdCells
          ? ResolveComputePool()
          : nullptr;
  if (resolved != nullptr) {
    resolved->ParallelFor(num_dirty, rebuild);
  } else {
    rebuild(0, num_dirty);
  }
  out.RebuildAggregatesDelta(base, dirty);
  out.RefreshLocalPointers();
  if (reused_tiles != nullptr) *reused_tiles = reused;
  return out;
}

void TiledSatPlane::RefreshLocalPointers() {
  local_data_.resize(local_.size());
  for (size_t k = 0; k < local_.size(); ++k) {
    local_data_[k] = local_[k]->data();
  }
}

void TiledSatPlane::RebuildCorner() {
  // Corner plane: 2-D prefix over whole-tile totals.
  corner_.assign(static_cast<size_t>((tiles_h_ + 1) * (tiles_w_ + 1)), 0.0);
  for (int64_t i = 1; i <= tiles_h_; ++i) {
    double* row = corner_.data() + i * (tiles_w_ + 1);
    const double* above = corner_.data() + (i - 1) * (tiles_w_ + 1);
    const double* totals = totals_.data() + (i - 1) * tiles_w_;
    for (int64_t j = 1; j <= tiles_w_; ++j) {
      row[j] = above[j] + row[j - 1] - above[j - 1] + totals[j - 1];
    }
  }
}

void TiledSatPlane::RebuildAggregates() {
  corner_.assign(static_cast<size_t>((tiles_h_ + 1) * (tiles_w_ + 1)), 0.0);
  top_.assign(static_cast<size_t>((tiles_h_ + 1) * (w_ + 1)), 0.0);
  left_.assign(static_cast<size_t>((h_ + 1) * (tiles_w_ + 1)), 0.0);
  totals_.assign(static_cast<size_t>(tiles_h_ * tiles_w_), 0.0);
  if (h_ == 0 || w_ == 0) return;

  const auto local_at = [&](int64_t i, int64_t j) -> const double* {
    return local_[static_cast<size_t>(i * tiles_w_ + j)]->data();
  };

  // Tile totals: the last entry of each inclusive local, densified so
  // the corner sweep (and future delta rebuilds) read contiguously.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      totals_[static_cast<size_t>(i * tiles_w_ + j)] =
          local_at(i, j)[th * tw - 1];
    }
  }

  RebuildCorner();

  // Column carries: colpref[c] accumulates full-column sums down tile
  // rows (read off each tile's bottom local row); top_[i][c] is then the
  // within-tile-strip running sum, reset at every tile column boundary.
  std::vector<double> colpref(static_cast<size_t>(w_), 0.0);
  for (int64_t i = 1; i <= tiles_h_; ++i) {
    const int64_t th = tile_rows(i - 1);
    for (int64_t j = 0; j < tiles_w_; ++j) {
      const int64_t tw = tile_cols(j);
      const double* last = local_at(i - 1, j) + (th - 1) * tw;
      double* cp = colpref.data() + j * kSatTileSize;
      for (int64_t c = 0; c < tw; ++c) {
        cp[c] += last[c] - (c > 0 ? last[c - 1] : 0.0);
      }
    }
    double* row = top_.data() + i * (w_ + 1);
    double run = 0.0;
    for (int64_t c = 0; c <= w_; ++c) {
      if (c % kSatTileSize == 0) run = 0.0;
      row[c] = run;
      if (c < w_) run += colpref[static_cast<size_t>(c)];
    }
  }

  // Row carries: within each tile row, left_[r+1][j] extends left_[r][j]
  // by row r's sum over the tile columns left of j (read off each tile's
  // rightmost local column). Rows at tile boundaries stay zero — they
  // open the next tile row's empty carry.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    const int64_t th = tile_rows(i);
    for (int64_t r_in = 0; r_in < th; ++r_in) {
      const int64_t g = i * kSatTileSize + r_in;
      if ((g + 1) % kSatTileSize == 0) continue;
      const double* prev = left_.data() + g * (tiles_w_ + 1);
      double* next = left_.data() + (g + 1) * (tiles_w_ + 1);
      next[0] = 0.0;
      double run = 0.0;
      for (int64_t j = 0; j < tiles_w_; ++j) {
        const int64_t tw = tile_cols(j);
        const double* right = local_at(i, j) + tw - 1;
        run += right[r_in * tw] - (r_in > 0 ? right[(r_in - 1) * tw] : 0.0);
        next[j + 1] = prev[j + 1] + run;
      }
    }
  }
}

void TiledSatPlane::RebuildAggregatesDelta(const TiledSatPlane& base,
                                           const TileDirtySet& dirty) {
  // The loop bodies below must mirror RebuildAggregates exactly: clean
  // strips are copied from `base` and dirty strips recomputed, and bit-
  // identity with a full sweep holds only if the recomputation performs
  // the same additions in the same order.
  if (h_ == 0 || w_ == 0) {
    RebuildAggregates();
    return;
  }

  const auto local_at = [&](int64_t i, int64_t j) -> const double* {
    return local_[static_cast<size_t>(i * tiles_w_ + j)]->data();
  };

  // Which tile columns / tile rows contain a dirty tile; refresh dirty
  // tiles' dense totals along the way (clean totals carry from base).
  std::vector<uint8_t> col_dirty(static_cast<size_t>(tiles_w_), 0);
  std::vector<uint8_t> row_dirty(static_cast<size_t>(tiles_h_), 0);
  totals_ = base.totals_;
  for (int64_t i = 0; i < tiles_h_; ++i) {
    for (int64_t j = 0; j < tiles_w_; ++j) {
      if (dirty.dirty(i, j)) {
        row_dirty[static_cast<size_t>(i)] = 1;
        col_dirty[static_cast<size_t>(j)] = 1;
        const int64_t th = tile_rows(i), tw = tile_cols(j);
        totals_[static_cast<size_t>(i * tiles_w_ + j)] =
            local_at(i, j)[th * tw - 1];
      }
    }
  }

  // Corner plane is O(tiles) over the dense totals: recompute outright,
  // same order as the full sweep.
  RebuildCorner();

  // Carry planes start as the base's values; clean strips keep them.
  top_ = base.top_;
  left_ = base.left_;

  // Column carries, dirty tile columns only. colpref is per-column and
  // the running sum resets at every strip boundary, so each strip's
  // recomputation is self-contained.
  std::vector<double> colpref(static_cast<size_t>(kSatTileSize), 0.0);
  for (int64_t j = 0; j < tiles_w_; ++j) {
    if (col_dirty[static_cast<size_t>(j)] == 0) continue;
    const int64_t tw = tile_cols(j);
    std::fill(colpref.begin(), colpref.begin() + tw, 0.0);
    // The full sweep writes top_[i][w_] as the last strip's closing run
    // (it stays zero when w_ lands on a tile boundary).
    const bool closes_grid =
        j * kSatTileSize + tw == w_ && w_ % kSatTileSize != 0;
    for (int64_t i = 1; i <= tiles_h_; ++i) {
      const int64_t th = tile_rows(i - 1);
      const double* last = local_at(i - 1, j) + (th - 1) * tw;
      for (int64_t c = 0; c < tw; ++c) {
        colpref[static_cast<size_t>(c)] += last[c] - (c > 0 ? last[c - 1]
                                                            : 0.0);
      }
      double* row = top_.data() + i * (w_ + 1) + j * kSatTileSize;
      double run = 0.0;
      for (int64_t c = 0; c < tw; ++c) {
        row[c] = run;
        run += colpref[static_cast<size_t>(c)];
      }
      if (closes_grid) row[tw] = run;
    }
  }

  // Row carries, dirty tile rows only. A strip's rows chain from its
  // tile-boundary opener row, which is always zero, so clean strips'
  // copied values are exact and dirty strips rebuild independently.
  for (int64_t i = 0; i < tiles_h_; ++i) {
    if (row_dirty[static_cast<size_t>(i)] == 0) continue;
    const int64_t th = tile_rows(i);
    for (int64_t r_in = 0; r_in < th; ++r_in) {
      const int64_t g = i * kSatTileSize + r_in;
      if ((g + 1) % kSatTileSize == 0) continue;
      const double* prev = left_.data() + g * (tiles_w_ + 1);
      double* next = left_.data() + (g + 1) * (tiles_w_ + 1);
      next[0] = 0.0;
      double run = 0.0;
      for (int64_t j = 0; j < tiles_w_; ++j) {
        const int64_t tw = tile_cols(j);
        const double* right = local_at(i, j) + tw - 1;
        run += right[r_in * tw] - (r_in > 0 ? right[(r_in - 1) * tw] : 0.0);
        next[j + 1] = prev[j + 1] + run;
      }
    }
  }
}

// ---------------------------------------------------------------------

TileDirtySet DiffFrames(const Tensor& frame, const Tensor& base) {
  if (frame.ndim() != 2 || base.ndim() != 2 ||
      frame.dim(0) != base.dim(0) || frame.dim(1) != base.dim(1)) {
    return TileDirtySet::AllDirty(frame.ndim() == 2 ? frame.dim(0) : 0,
                                  frame.ndim() == 2 ? frame.dim(1) : 0);
  }
  const int64_t h = frame.dim(0), w = frame.dim(1);
  TileDirtySet dirty(h, w, /*track_cells=*/true);
  for (int64_t r = 0; r < h; ++r) {
    const float* a = frame.data() + r * w;
    const float* b = base.data() + r * w;
    for (int64_t c0 = 0; c0 < w; c0 += kSatTileSize) {
      const int64_t n = std::min(kSatTileSize, w - c0);
      const size_t bytes = static_cast<size_t>(n) * sizeof(float);
      if (std::memcmp(a + c0, b + c0, bytes) == 0) continue;
      if (n == kSatTileSize) {
        dirty.MarkTileRowSpan(r, c0, ChangedCellBits(a + c0, b + c0));
      } else {
        // A short edge span, zero-padded to full width.
        float pa[kSatTileSize] = {}, pb[kSatTileSize] = {};
        std::memcpy(pa, a + c0, bytes);
        std::memcpy(pb, b + c0, bytes);
        dirty.MarkTileRowSpan(r, c0, ChangedCellBits(pa, pb));
      }
    }
  }
  return dirty;
}

}  // namespace one4all
