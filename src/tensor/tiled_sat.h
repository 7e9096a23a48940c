// Tiled, copy-on-write substrate of incremental epoch publication: a
// frame (and its summed-area plane) is stored as a grid of fixed-size
// tile blocks held by shared_ptr, so consecutive generations alias every
// tile that did not change and staging a low-churn epoch copies only the
// dirty fraction of the data.
//
// The summed-area side is a two-level decomposition. Each tile keeps its
// local inclusive prefix sums; three small aggregate arrays (tile-corner
// plane + per-tile-row column carries + per-tile-column row carries)
// stitch the locals back into global prefixes, so a global prefix is
// still four reads:
//
//   P(r, c) = Corner[i][j] + Top[i][c] + Left[r][j] + Local_ij(r%, c%)
//
// with (i, j) = (r, c) / kSatTileSize. A dirty tile costs O(tile) to
// rebuild its local; the aggregates are recomputed in one deterministic
// O(cells / tile) sweep over the tile margins (the "carry fixup").
//
// Sums are exact by construction: a TiledFrame snaps every cell to a
// multiple of kCellQuantum as it copies it in, and the store refuses a
// frame whose absolute sum passes kMaxFrameAbsSum. No double a plane
// build, PrefixAt or RectSum forms can then round, so a rect sum is the
// exact sum of the rect's own cells: the same bits as any cell loop over
// them, in any order, from a full or an incremental build.
#ifndef ONE4ALL_TENSOR_TILED_SAT_H_
#define ONE4ALL_TENSOR_TILED_SAT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/logging.h"
#include "tensor/tensor.h"

namespace one4all {

/// \brief Tile edge in cells. A power of two, so the hot four-read path
/// divides by shifting. 32 keeps a tile's local prefix (8 KiB of
/// doubles) L1-resident during rebuild while the aggregate arrays stay
/// ~2/32 of the plane.
constexpr int64_t kSatTileSize = 32;

/// \brief The grid every stored cell lies on: q = 2^-20.
constexpr double kCellQuantum = 0x1p-20;

/// \brief Rounds `x` to the nearest multiple of kCellQuantum, ties to
/// even. Every finite float maps to a float: a float of magnitude >= 8
/// (and every integer) already is a multiple of q and is returned
/// unchanged, and below 8 a multiple of q needs at most 23 significant
/// bits. Branch-free so the tile copy vectorises: adding 1.5 * 2^52
/// rounds x * 2^20 to an integer, exactly for |x| < 2^31. Larger cells
/// may snap wrongly; they lie past kMaxFrameAbsSum, so no store keeps
/// them. NaN and +-Inf pass through; -0.0 becomes +0.0.
inline float Snap(float x) {
  return static_cast<float>(
      ((static_cast<double>(x) * 0x1p20 + 0x1.8p52) - 0x1.8p52) *
      kCellQuantum);
}

/// \brief Largest absolute sum of a frame a store accepts: 2^28 =
/// 2^48 q. Below it every sum the serving path forms is exact:
///   - Every double a plane build or PrefixAt forms is a multiple of q
///     and, bar one intermediate, a sum over a subset of the frame's
///     cells, so at most the frame's absolute sum S. The corner plane's
///     `above + left` is at most 2S. A multiple of q is exact up to
///     2^53 q, and 2S <= 2^49 q.
///   - RectSum's differences are rect sums, again at most S.
///   - A row's fold at one timestep adds +-term values, multiples of q,
///     and is exact while the sum of their magnitudes stays below
///     2^53 q. Each term is one layer cell, so that sum is at most
///     (reads of a cell) x (layers) x S, exact while reads x layers <=
///     32: eight layers (a 128x128 hierarchy) reading a cell up to four
///     times each, or sixteen layers twice.
/// It is also below 2^31, so a cell Snap could round wrongly is refused.
/// A band shard checks its own band's sum.
constexpr double kMaxFrameAbsSum = 0x1p28;

/// \brief Which tiles of one [h, w] frame changed relative to some
/// baseline (the previous timestep's frame, for staging). A default-
/// constructed set is "unknown" (empty()): consumers must treat every
/// tile as dirty then.
///
/// A set DiffFrames returns also carries which *cells* changed, one bit
/// per cell (has_cells()). Staging, slicing and the SAT fixup only read
/// the tile bits; the cell bits let a consumer that reads a few cells of
/// a large tile (the top-k memo's footprints on coarse layers, which fit
/// in one tile) tell a churned tile from a churned cell. Such a set is
/// final: the Mark* calls keep no cell bits, so they refuse it.
class TileDirtySet {
 public:
  TileDirtySet() = default;
  /// \brief All-clean set for an `h` x `w` frame (tile bits only).
  TileDirtySet(int64_t h, int64_t w) : TileDirtySet(h, w, false) {}

  static TileDirtySet AllDirty(int64_t h, int64_t w);

  /// \brief True for the default-constructed "unknown" set.
  bool empty() const { return tiles_h_ == 0 || tiles_w_ == 0; }
  /// \brief True when the set carries per-cell bits.
  bool has_cells() const { return !cells_.empty(); }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }
  int64_t num_tiles() const { return tiles_h_ * tiles_w_; }

  bool dirty(int64_t i, int64_t j) const {
    return bits_[static_cast<size_t>(i * tiles_w_ + j)] != 0;
  }
  void MarkTile(int64_t i, int64_t j) {
    O4A_DCHECK(!has_cells()) << "a DiffFrames result is final";
    bits_[static_cast<size_t>(i * tiles_w_ + j)] = 1;
  }
  void MarkCell(int64_t r, int64_t c) {
    MarkTile(r / kSatTileSize, c / kSatTileSize);
  }
  /// \brief Marks every tile intersecting the half-open cell rect
  /// [r0, r1) x [c0, c1); clamped to the frame.
  void MarkRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1);

  int64_t CountDirty() const;
  bool AnyDirty() const { return CountDirty() > 0; }

  /// \brief True when the half-open cell rect [r0, r1) x [c0, c1)
  /// touches any dirty tile. An unknown set intersects everything
  /// (callers must then assume change).
  bool IntersectsRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const;

  /// \brief Cell-exact IntersectsRect: true when some changed cell lies
  /// in [r0, r1) x [c0, c1). Without cell bits it is IntersectsRect
  /// (every cell of a dirty tile counts as changed); an unknown set
  /// intersects everything.
  bool CellsIntersectRect(int64_t r0, int64_t c0, int64_t r1,
                          int64_t c1) const;

  /// \brief Dirty set of the row band [row0, row1) viewed as its own
  /// frame (the shard slice): a band tile is dirty when any full-frame
  /// tile overlapping its global rows/cols is. Conservative when the
  /// band is not tile-aligned — over-marking only costs copies, never
  /// correctness. The slice keeps tile bits only (band staging reads
  /// nothing finer). Unknown stays unknown.
  TileDirtySet SliceRows(int64_t row0, int64_t row1) const;

 private:
  friend TileDirtySet DiffFrames(const Tensor& frame, const Tensor& base);

  /// `track_cells` also keeps the per-cell bits (DiffFrames only).
  TileDirtySet(int64_t h, int64_t w, bool track_cells);
  /// DiffFrames' mark: bit i of `changed` (non-zero) is cell (r, c0 + i)
  /// of the tile row span starting at c0 (a multiple of kSatTileSize);
  /// the set must track cells.
  void MarkTileRowSpan(int64_t r, int64_t c0, uint32_t changed);

  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  std::vector<uint8_t> bits_;
  /// Cell bits, row-major with each row padded to whole words
  /// (words_per_row_ = ceil(w / 64)); empty without cell tracking.
  int64_t words_per_row_ = 0;
  std::vector<uint64_t> cells_;
};

/// \brief Per-layer dirty sets of one staged timestep, indexed [layer-1]
/// like the frame vector the ingestor hands to the epoch sink. An empty
/// vector (or an empty element) means "unknown — stage everything".
using DirtyTileSets = std::vector<TileDirtySet>;

/// \brief Where cell (r, c) of a frame `width` cells wide lives in its
/// tiled storage: tile index i * tiles_w + j (row-major over tiles) and
/// the row-major offset inside that tile. Depends on the width only —
/// edge tiles are short in columns, so their in-tile row stride is too.
struct TileAddress {
  int32_t tile = 0;
  int32_t in_tile = 0;
};

inline TileAddress TileAddressOf(int64_t width, int64_t r, int64_t c) {
  // r, c are non-negative; unsigned division compiles to a shift.
  const int64_t i =
      static_cast<int64_t>(static_cast<uint64_t>(r) / kSatTileSize);
  const int64_t j =
      static_cast<int64_t>(static_cast<uint64_t>(c) / kSatTileSize);
  const int64_t tiles_w = (width + kSatTileSize - 1) / kSatTileSize;
  const int64_t tw =
      j + 1 < tiles_w ? kSatTileSize : width - j * kSatTileSize;
  return TileAddress{
      static_cast<int32_t>(i * tiles_w + j),
      static_cast<int32_t>((r - i * kSatTileSize) * tw +
                           (c - j * kSatTileSize))};
}

/// \brief One [h, w] float frame stored as shared tile blocks. Copying a
/// TiledFrame copies tiles_h x tiles_w shared_ptrs, never cell data —
/// that is the copy-on-write carry-forward. Immutable once built.
class TiledFrame {
 public:
  TiledFrame() = default;

  /// \brief Fresh frame: every tile block newly allocated from `frame`,
  /// each cell stored as Snap(cell).
  static TiledFrame FromTensor(const Tensor& frame);

  /// \brief Copy-on-write frame: tiles marked dirty are copied (and
  /// snapped) from `frame`, clean tiles alias `base`'s blocks and tile
  /// sums (the caller guarantees
  /// `frame` equals the base frame on clean tiles — staging derives
  /// `dirty` by diffing exactly these two frames). Falls back to
  /// FromTensor when geometry differs or `dirty` is unknown.
  /// `shared_tiles` (nullable) receives the number of aliased blocks.
  static TiledFrame FromDelta(const Tensor& frame, const TiledFrame& base,
                              const TileDirtySet& dirty,
                              int64_t* shared_tiles);

  bool empty() const { return h_ == 0 || w_ == 0; }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }

  /// \brief Rows/cols of tile (i, j) (edge tiles may be short).
  int64_t tile_rows(int64_t i) const {
    return i + 1 < tiles_h_ ? kSatTileSize : h_ - i * kSatTileSize;
  }
  int64_t tile_cols(int64_t j) const {
    return j + 1 < tiles_w_ ? kSatTileSize : w_ - j * kSatTileSize;
  }

  const float* block(int64_t i, int64_t j) const {
    return tile_data_[static_cast<size_t>(i * tiles_w_ + j)];
  }
  /// \brief The dense per-tile cell table: entry i * tiles_w + j is tile
  /// (i, j)'s row-major cells, so tiles()[a.tile][a.in_tile] reads the
  /// cell a TileAddressOf(width(), r, c) names — in place, no copy.
  /// Valid while this frame (or any copy sharing its blocks) lives.
  const float* const* tiles() const { return tile_data_.data(); }
  /// \brief Whether tile (i, j) aliases the same block as `other`'s.
  bool SharesBlockWith(const TiledFrame& other, int64_t i,
                       int64_t j) const {
    return blocks_[static_cast<size_t>(i * tiles_w_ + j)] ==
           other.blocks_[static_cast<size_t>(i * tiles_w_ + j)];
  }

  float at(int64_t r, int64_t c) const {
    O4A_DCHECK(r >= 0 && r < h_ && c >= 0 && c < w_);
    const TileAddress a = TileAddressOf(w_, r, c);
    return tile_data_[static_cast<size_t>(a.tile)][a.in_tile];
  }

  /// \brief Sum of |cell| over the frame, from the per-tile sums kept
  /// since the cells were copied in: O(tiles). NaN when a cell is NaN,
  /// Inf when a cell is infinite.
  double abs_sum() const;

  /// \brief Contiguous [h, w] copy for offline and test readers (round-
  /// trip checks): O(cells). Serving reads go through at() / tiles()
  /// instead.
  Tensor Materialize() const;

 private:
  using Block = std::shared_ptr<const std::vector<float>>;

  /// \brief Refills tile_data_ from blocks_. Must run after the blocks
  /// are final (end of FromTensor/FromDelta).
  void RefreshTilePointers();

  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  std::vector<Block> blocks_;
  /// Sum of |cell| over tile k, aligned with blocks_.
  std::vector<double> abs_sums_;
  /// blocks_[k]->data() flattened into a dense 8-byte-per-tile table so
  /// a cell read reaches tile data in one load instead of chasing the
  /// shared_ptr + vector object (as TiledSatPlane::local_data_). Copies
  /// stay correct because they share the blocks.
  std::vector<const float*> tile_data_;
};

/// \brief Two-level summed-area plane over a TiledFrame: PrefixAt = sum
/// over [0, r) x [0, c), RectSum = four corner reads of the half-open
/// rect. Storage is local per-tile prefixes held by shared_ptr + small
/// aggregate carries. Immutable once built; copying aliases every local
/// block.
class TiledSatPlane {
 public:
  TiledSatPlane() = default;

  /// \brief Full build: every tile's local prefix freshly computed, then
  /// one aggregate sweep. Large frames fan the independent tile builds
  /// out on the ambient compute pool; small ones build sequentially.
  static TiledSatPlane Build(const TiledFrame& frame);

  /// \brief Incremental build: clean tiles alias `base`'s local blocks,
  /// dirty tiles rebuild from `frame`, aggregates recomputed in the same
  /// deterministic sweep as Build — so the result is bit-identical to
  /// Build(frame) whenever `base` matches `frame` on clean tiles. Falls
  /// back to Build on geometry mismatch or an unknown dirty set.
  /// `reused_tiles` (nullable) receives the aliased-local count.
  static TiledSatPlane BuildDelta(const TiledFrame& frame,
                                  const TiledSatPlane& base,
                                  const TileDirtySet& dirty,
                                  int64_t* reused_tiles);

  bool empty() const { return h_ == 0 || w_ == 0; }
  int64_t height() const { return h_; }
  int64_t width() const { return w_; }
  int64_t tiles_h() const { return tiles_h_; }
  int64_t tiles_w() const { return tiles_w_; }

  /// \brief Global prefix: sum of the frame over [0, r) x [0, c).
  /// Four reads: corner + column carry + row carry + tile local.
  double PrefixAt(int64_t r, int64_t c) const {
    O4A_DCHECK(r >= 0 && r <= h_ && c >= 0 && c <= w_);
    // r, c are non-negative; unsigned division compiles to a shift.
    const int64_t i =
        static_cast<int64_t>(static_cast<uint64_t>(r) / kSatTileSize);
    const int64_t j =
        static_cast<int64_t>(static_cast<uint64_t>(c) / kSatTileSize);
    const int64_t r_in = r - i * kSatTileSize;
    const int64_t c_in = c - j * kSatTileSize;
    double p = corner_[static_cast<size_t>(i * (tiles_w_ + 1) + j)] +
               top_[static_cast<size_t>(i * (w_ + 1) + c)] +
               left_[static_cast<size_t>(r * (tiles_w_ + 1) + j)];
    if (r_in > 0 && c_in > 0) {
      // Inclusive local prefix: L[r_in-1][c_in-1] covers the tile's
      // [0, r_in) x [0, c_in) corner. Read through the dense raw-pointer
      // table, not the shared_ptr blocks — one dependent load fewer on
      // the query gather.
      const int64_t tw = tile_cols(j);
      p += local_data_[static_cast<size_t>(i * tiles_w_ + j)]
                      [(r_in - 1) * tw + (c_in - 1)];
    }
    return p;
  }

  /// \brief Sum over the half-open rect [r0, r1) x [c0, c1): four
  /// corner reads, any area. Exact for a frame the store accepts.
  double RectSum(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const {
    O4A_DCHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
    O4A_DCHECK(r0 <= r1 && c0 <= c1);
    return (PrefixAt(r1, c1) - PrefixAt(r1, c0)) -
           (PrefixAt(r0, c1) - PrefixAt(r0, c0));
  }

  int64_t tile_rows(int64_t i) const {
    return i + 1 < tiles_h_ ? kSatTileSize : h_ - i * kSatTileSize;
  }
  int64_t tile_cols(int64_t j) const {
    return j + 1 < tiles_w_ ? kSatTileSize : w_ - j * kSatTileSize;
  }

  /// \brief Whether tile (i, j)'s local block aliases `other`'s.
  bool SharesLocalWith(const TiledSatPlane& other, int64_t i,
                       int64_t j) const {
    return local_[static_cast<size_t>(i * tiles_w_ + j)] ==
           other.local_[static_cast<size_t>(i * tiles_w_ + j)];
  }

 private:
  using LocalBlock = std::shared_ptr<const std::vector<double>>;

  /// \brief Refills local_data_ from local_. Must run after the local
  /// blocks are final (end of Build/BuildDelta).
  void RefreshLocalPointers();

  /// \brief Rebuilds corner_ as the 2-D prefix of the dense totals_;
  /// O(tiles).
  void RebuildCorner();

  /// \brief Rebuilds totals_/corner_/top_/left_ from the locals — one
  /// fixed-order sweep over tile margins, O(cells / kSatTileSize) +
  /// O(tiles).
  void RebuildAggregates();

  /// \brief Incremental aggregate rebuild: the carry planes are strip-
  /// separable (a top_ column strip reads only tiles in its tile column;
  /// a left_ row strip only tiles in its tile row), so clean strips copy
  /// from `base` and only strips touching a dirty tile recompute — in
  /// RebuildAggregates' exact arithmetic order, keeping the result
  /// bit-identical to a full sweep. corner_ is O(tiles) and rebuilt
  /// outright. Caller guarantees `base` matches this plane's geometry
  /// and `dirty` is a known (non-empty) set of the same extent.
  void RebuildAggregatesDelta(const TiledSatPlane& base,
                              const TileDirtySet& dirty);

  int64_t h_ = 0, w_ = 0;
  int64_t tiles_h_ = 0, tiles_w_ = 0;
  /// Tile (i, j)'s inclusive local prefix, tile_rows x tile_cols:
  /// L[r][c] = sum of the tile over [0, r] x [0, c].
  std::vector<LocalBlock> local_;
  /// local_[k]->data() flattened into a dense 8-byte-per-tile table so
  /// PrefixAt reaches tile data in one load instead of chasing the
  /// shared_ptr + vector object. Valid as long as local_ holds the
  /// blocks; the copy constructor stays correct because copies share
  /// those blocks.
  std::vector<const double*> local_data_;
  /// Dense copy of each tile's total (its local's last entry), tiles_h x
  /// tiles_w. Kept so the corner-plane rebuild reads a contiguous 8 KB
  /// array instead of chasing one cache line per tile block, and so the
  /// delta path can carry clean tiles' totals without touching them.
  std::vector<double> totals_;
  /// corner_[i][j] = frame sum over rows [0, i*T) x cols [0, j*T);
  /// (tiles_h + 1) x (tiles_w + 1).
  std::vector<double> corner_;
  /// top_[i][c] = frame sum over rows [0, i*T) x cols [jT, c) where
  /// j = c / T (the column carry above tile row i); (tiles_h+1) x (w+1).
  std::vector<double> top_;
  /// left_[r][j] = frame sum over rows [iT, r) x cols [0, j*T) where
  /// i = r / T (the row carry left of tile column j); (h+1) x (tiles_w+1).
  std::vector<double> left_;
};

/// \brief Diffs `frame` against `base`: the ingestor's dirty tracking.
/// Each tile row (one row's 32-cell span) is compared by memcmp; only
/// the cells of a differing span are compared one by one and marked, so
/// the result carries cell bits (has_cells()) at the cost of one memcmp
/// pass plus the changed spans. Returns AllDirty (tile bits only) on
/// geometry mismatch.
TileDirtySet DiffFrames(const Tensor& frame, const Tensor& base);

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_TILED_SAT_H_
