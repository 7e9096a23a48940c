// Tests for the tiled two-level SAT substrate (src/tensor/tiled_sat):
// the dirty-tile set semantics, the cell snap, copy-on-write tiled
// frames, and — the load-bearing property — that the tiled plane's
// prefix reads and rect sums equal the exact sums of the snapped cells
// bit for bit, whether the plane was built from scratch or
// incrementally from a dirty set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::Snapped;

Tensor RandomFrame(int64_t h, int64_t w, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomUniform({h, w}, &rng, 0.0f, 10.0f);
}

uint32_t FloatBits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Every cell read in place through the tile table (TileAddressOf +
// tiles()) and through at() carries the same bits as the materialized
// copy and the snapped source tensor.
void ExpectTileTableReadsMatch(const TiledFrame& tiled, const Tensor& raw) {
  const Tensor src = Snapped(raw);
  const int64_t h = src.dim(0), w = src.dim(1);
  ASSERT_EQ(tiled.height(), h);
  ASSERT_EQ(tiled.width(), w);
  const Tensor flat = tiled.Materialize();
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      const TileAddress a = TileAddressOf(w, r, c);
      ASSERT_EQ(a.tile, (r / kSatTileSize) * tiled.tiles_w() +
                            c / kSatTileSize);
      const float in_place = tiled.tiles()[a.tile][a.in_tile];
      ASSERT_EQ(FloatBits(in_place), FloatBits(flat.at(r, c)))
          << h << "x" << w << " cell " << r << "," << c;
      ASSERT_EQ(FloatBits(in_place), FloatBits(src.at(r, c)));
      ASSERT_EQ(FloatBits(tiled.at(r, c)), FloatBits(in_place));
    }
  }
}

// Sum of the frame over [r0, r1) x [c0, c1), cell by cell in row-major
// order. Over snapped cells no step rounds, so this is the one exact
// answer any summation order gives.
double BruteForceSum(const Tensor& frame, int64_t r0, int64_t c0, int64_t r1,
                     int64_t c1) {
  double sum = 0.0;
  for (int64_t r = r0; r < r1; ++r) {
    for (int64_t c = c0; c < c1; ++c) sum += frame.at(r, c);
  }
  return sum;
}

// Every prefix entry and a battery of rect sums must equal the exact
// sums of `frame`'s snapped cells: ==, not Near. The prefix reference is
// the textbook recurrence, which rounds nowhere on snapped cells either.
void ExpectExactSums(const TiledSatPlane& tiled, const Tensor& frame) {
  const Tensor snapped = Snapped(frame);
  const int64_t h = frame.dim(0), w = frame.dim(1);
  std::vector<double> prefix(static_cast<size_t>((h + 1) * (w + 1)), 0.0);
  const auto at = [&](int64_t r, int64_t c) -> double& {
    return prefix[static_cast<size_t>(r * (w + 1) + c)];
  };
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      at(r + 1, c + 1) =
          at(r, c + 1) + at(r + 1, c) - at(r, c) + snapped.at(r, c);
    }
  }
  for (int64_t r = 0; r <= h; ++r) {
    for (int64_t c = 0; c <= w; ++c) {
      ASSERT_EQ(tiled.PrefixAt(r, c), at(r, c))
          << "prefix mismatch at " << r << "," << c;
    }
  }
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    int64_t r0 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(h + 1)));
    int64_t r1 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(h + 1)));
    int64_t c0 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(w + 1)));
    int64_t c1 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(w + 1)));
    if (r0 > r1) std::swap(r0, r1);
    if (c0 > c1) std::swap(c0, c1);
    ASSERT_EQ(tiled.RectSum(r0, c0, r1, c1),
              BruteForceSum(snapped, r0, c0, r1, c1))
        << "rect (" << r0 << "," << c0 << ")-(" << r1 << "," << c1 << ")";
  }
}

// Two planes of one frame read the same bits at every prefix.
void ExpectSamePrefixes(const TiledSatPlane& a, const TiledSatPlane& b) {
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.width(), b.width());
  for (int64_t r = 0; r <= a.height(); ++r) {
    for (int64_t c = 0; c <= a.width(); ++c) {
      ASSERT_EQ(a.PrefixAt(r, c), b.PrefixAt(r, c))
          << "prefix mismatch at " << r << "," << c;
    }
  }
}

TEST(TileDirtySetTest, MarkAndIntersectSemantics) {
  TileDirtySet dirty(100, 70);  // 4 x 3 tiles of 32
  EXPECT_EQ(dirty.tiles_h(), 4);
  EXPECT_EQ(dirty.tiles_w(), 3);
  EXPECT_FALSE(dirty.empty());
  EXPECT_FALSE(dirty.AnyDirty());

  dirty.MarkCell(31, 31);  // last cell of tile (0, 0)
  dirty.MarkCell(32, 32);  // first cell of tile (1, 1)
  EXPECT_TRUE(dirty.dirty(0, 0));
  EXPECT_TRUE(dirty.dirty(1, 1));
  EXPECT_FALSE(dirty.dirty(0, 1));
  EXPECT_EQ(dirty.CountDirty(), 2);

  // Cell-rect intersection respects tile granularity: any rect touching
  // a dirty tile's cells intersects, one confined to clean tiles misses.
  EXPECT_TRUE(dirty.IntersectsRect(0, 0, 1, 1));
  EXPECT_FALSE(dirty.IntersectsRect(64, 0, 100, 32));

  // Unknown (default-constructed) sets conservatively intersect all.
  TileDirtySet unknown;
  EXPECT_TRUE(unknown.empty());
  EXPECT_TRUE(unknown.IntersectsRect(0, 0, 1, 1));

  TileDirtySet all = TileDirtySet::AllDirty(100, 70);
  EXPECT_EQ(all.CountDirty(), 12);
}

TEST(TileDirtySetTest, MarkRectCoversExactTileSpan) {
  TileDirtySet dirty(128, 128);
  dirty.MarkRect(30, 30, 34, 34);  // straddles a 2x2 tile corner
  EXPECT_EQ(dirty.CountDirty(), 4);
  EXPECT_TRUE(dirty.dirty(0, 0));
  EXPECT_TRUE(dirty.dirty(0, 1));
  EXPECT_TRUE(dirty.dirty(1, 0));
  EXPECT_TRUE(dirty.dirty(1, 1));
  EXPECT_FALSE(dirty.dirty(2, 2));
}

TEST(TileDirtySetTest, SliceRowsMapsBandOntoLocalCoordinates) {
  TileDirtySet dirty(128, 64);
  dirty.MarkCell(70, 5);  // tile row 2 of the full grid
  // A tile-aligned band [64, 128) sees it as its local tile row 0.
  TileDirtySet band = dirty.SliceRows(64, 128);
  EXPECT_EQ(band.height(), 64);
  EXPECT_TRUE(band.dirty(0, 0));
  EXPECT_EQ(band.CountDirty(), 1);
  // A band that misses the dirty row entirely is all-clean.
  TileDirtySet clean_band = dirty.SliceRows(0, 64);
  EXPECT_FALSE(clean_band.AnyDirty());
}

TEST(DiffFramesTest, FindsExactlyTheChangedTiles) {
  Tensor base = RandomFrame(96, 96, 5);
  Tensor next = base;
  next.data()[40 * 96 + 80] += 1.0f;  // tile (1, 2)
  TileDirtySet dirty = DiffFrames(next, base);
  EXPECT_EQ(dirty.CountDirty(), 1);
  EXPECT_TRUE(dirty.dirty(1, 2));

  // Geometry mismatch degrades to all-dirty, never a wrong answer.
  TileDirtySet mismatch = DiffFrames(next, RandomFrame(32, 96, 6));
  EXPECT_TRUE(mismatch.empty() || mismatch.CountDirty() == 9);
}

// Brute-force reference for the cell-exact rect query: does any cell of
// [r0, r1) x [c0, c1), clamped to the frame, differ in bits between
// `next` and `base`?
bool ChangedCellInRect(const Tensor& next, const Tensor& base, int64_t r0,
                       int64_t c0, int64_t r1, int64_t c1) {
  const int64_t h = next.dim(0), w = next.dim(1);
  for (int64_t r = std::max<int64_t>(r0, 0); r < std::min(r1, h); ++r) {
    for (int64_t c = std::max<int64_t>(c0, 0); c < std::min(c1, w); ++c) {
      if (FloatBits(next.at(r, c)) != FloatBits(base.at(r, c))) return true;
    }
  }
  return false;
}

// The cell-exact query against a cell-by-cell reference, on a ragged
// 100x70 layer (edge tiles short in both directions, rows spanning two
// words) and a 128x128 one: scattered single cells, a small block, a
// sign-only change (-0.0 vs 0.0) and an unchanged frame. The tile-level
// query stays the conservative superset it always was.
TEST(DiffFramesTest, CellsIntersectRectMatchesCellReference) {
  for (const auto& [h, w] : std::vector<std::pair<int64_t, int64_t>>{
           {100, 70}, {128, 128}}) {
    for (uint64_t trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w) +
                   " trial " + std::to_string(trial));
      Rng rng(1000 + trial * 7 + static_cast<uint64_t>(h));
      Tensor base = RandomFrame(h, w, 40 + trial);
      Tensor next = base;
      std::vector<std::pair<int64_t, int64_t>> changed;
      if (trial > 0) {
        for (int i = 0; i < 6; ++i) {
          changed.emplace_back(
              static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(h))),
              static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(w))));
        }
        // Corners: the last cell of the frame and a word boundary.
        changed.emplace_back(h - 1, w - 1);
        changed.emplace_back(0, std::min<int64_t>(64, w - 1));
        for (const auto& [r, c] : changed) next.at(r, c) += 1.0f;
      }
      if (trial == 2) {
        // A 3x5 block straddling a tile corner.
        for (int64_t r = 30; r < 33; ++r) {
          for (int64_t c = 29; c < 34; ++c) next.at(r, c) += 2.0f;
        }
      }
      if (trial == 3) {
        base.at(50, 40) = 0.0f;
        next.at(50, 40) = -0.0f;
        changed.emplace_back(50, 40);
      }
      TileDirtySet dirty = DiffFrames(next, base);
      ASSERT_TRUE(dirty.has_cells());
      EXPECT_EQ(dirty.AnyDirty(), trial > 0);
      for (int i = 0; i < 400; ++i) {
        // Rects may reach past either edge; the query clamps them.
        auto draw = [&](int64_t n) {
          return static_cast<int64_t>(
                     rng.UniformInt(static_cast<uint64_t>(n + 5))) - 2;
        };
        int64_t r0 = draw(h), r1 = draw(h), c0 = draw(w), c1 = draw(w);
        if (r0 > r1) std::swap(r0, r1);
        if (c0 > c1) std::swap(c0, c1);
        if (i % 4 == 0) {
          // Small rects, so misses next to a change are common.
          r1 = std::min(r0 + 1 + (i % 3), r1 + 3);
          c1 = std::min(c0 + 1 + (i % 5), c1 + 3);
        }
        const bool expected = ChangedCellInRect(next, base, r0, c0, r1, c1);
        ASSERT_EQ(dirty.CellsIntersectRect(r0, c0, r1, c1), expected)
            << "rect (" << r0 << "," << c0 << ")-(" << r1 << "," << c1
            << ")";
        if (expected) {
          EXPECT_TRUE(dirty.IntersectsRect(r0, c0, r1, c1));
        }
      }
      // Every changed cell hits as a 1x1 rect, and each of its clean
      // neighbours misses.
      for (const auto& [r, c] : changed) {
        EXPECT_TRUE(dirty.CellsIntersectRect(r, c, r + 1, c + 1));
        for (int64_t dr = -1; dr <= 1; ++dr) {
          for (int64_t dc = -1; dc <= 1; ++dc) {
            const int64_t nr = r + dr, nc = c + dc;
            EXPECT_EQ(dirty.CellsIntersectRect(nr, nc, nr + 1, nc + 1),
                      ChangedCellInRect(next, base, nr, nc, nr + 1, nc + 1))
                << "(" << nr << "," << nc << ")";
          }
        }
      }
    }
  }
}

// Sets without cell bits answer the cell query at tile granularity, an
// unknown set intersects everything, and slices of a DiffFrames result
// keep tile bits only.
TEST(TileDirtySetTest, CellQueryFallsBackToTilesWithoutCellBits) {
  TileDirtySet tiles(100, 70);
  EXPECT_FALSE(tiles.has_cells());
  tiles.MarkCell(5, 66);
  EXPECT_TRUE(tiles.CellsIntersectRect(0, 64, 5, 70));
  EXPECT_FALSE(tiles.CellsIntersectRect(32, 0, 100, 70));

  EXPECT_TRUE(TileDirtySet().CellsIntersectRect(0, 0, 1, 1));
  EXPECT_FALSE(TileDirtySet::AllDirty(100, 70).has_cells());

  Tensor base = RandomFrame(100, 70, 3);
  Tensor next = base;
  next.at(40, 10) += 1.0f;
  next.at(99, 63) += 1.0f;
  const TileDirtySet cells = DiffFrames(next, base);
  ASSERT_TRUE(cells.has_cells());
  EXPECT_FALSE(cells.CellsIntersectRect(0, 0, 40, 70));
  TileDirtySet band = cells.SliceRows(32, 100);
  EXPECT_FALSE(band.has_cells());
  EXPECT_TRUE(band.dirty(0, 0));  // row 40 sits in band tile row 0
  EXPECT_TRUE(band.dirty(2, 1));  // row 99: band rows [64, 68)
  EXPECT_EQ(band.CountDirty(), 2);
}

// Snap puts a float on the 2^-20 grid: integers and cells of magnitude
// >= 8 stay as they are, a second snap changes nothing, no cell moves by
// more than q/2, and the branch-free rounding equals nearbyint over
// seeded random floats of every magnitude below 2^31.
TEST(SnapTest, RoundsToTheQuantumGrid) {
  const double q = kCellQuantum;
  for (float x : {0.0f, 1.0f, -1.0f, 3.0f, 1e6f, -65536.0f, 8.0f, -8.0f,
                  8.000001f, 123.456f, -2047.9999f, 1e9f, -2.1e9f}) {
    EXPECT_EQ(Snap(x), x) << x;
  }
  EXPECT_EQ(Snap(0x1p-21f), 0.0f);          // a tie rounds to even: 0
  EXPECT_EQ(Snap(3 * 0x1p-21f), 0x1p-19f);  // 1.5 q rounds to 2 q
  EXPECT_EQ(Snap(1e-7f), 0.0f);
  EXPECT_EQ(Snap(0.1f), static_cast<float>(std::nearbyint(0.1 / q) * q));
  EXPECT_TRUE(std::isnan(Snap(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(Snap(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());

  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    // A random magnitude 2^e for e in [-30, 30], a random sign and
    // mantissa: every binade a frame cell can land in.
    const int e = static_cast<int>(rng.UniformInt(61)) - 30;
    const double mantissa = 1.0 + rng.Uniform();
    const float x = static_cast<float>(
        (rng.UniformInt(2) == 0 ? 1.0 : -1.0) * std::ldexp(mantissa, e));
    const float snapped = Snap(x);
    ASSERT_EQ(snapped, static_cast<float>(
                           std::nearbyint(static_cast<double>(x) / q) * q))
        << x;
    ASSERT_EQ(Snap(snapped), snapped) << x;
    ASSERT_LE(std::fabs(static_cast<double>(snapped) - x), q / 2) << x;
    if (std::fabs(x) >= 8.0f || x == std::trunc(x)) {
      ASSERT_EQ(snapped, x) << x;
    }
  }
}

// A tiled frame keeps the snapped cells and each tile's sum of |cell|,
// so its absolute sum is exact, a delta frame's reuses the clean tiles'
// sums, and a NaN or infinite cell shows in it.
TEST(TiledFrameTest, AbsSumIsTheSnappedCellsAbsoluteSum) {
  Tensor base = RandomFrame(100, 70, 12);
  for (int64_t i = 0; i < base.numel(); i += 3) base.data()[i] *= -1.0f;
  const Tensor snapped = Snapped(base);
  double expected = 0.0;
  for (int64_t i = 0; i < snapped.numel(); ++i) {
    expected += std::fabs(static_cast<double>(snapped.data()[i]));
  }
  const TiledFrame tiled = TiledFrame::FromTensor(base);
  EXPECT_EQ(tiled.abs_sum(), expected);
  EXPECT_EQ(TiledFrame().abs_sum(), 0.0);

  Tensor next = base;
  next.at(99, 69) = -4000.0f;  // the short corner tile
  const TiledFrame delta =
      TiledFrame::FromDelta(next, tiled, DiffFrames(next, base), nullptr);
  EXPECT_EQ(delta.abs_sum(),
            expected - std::fabs(static_cast<double>(snapped.at(99, 69))) +
                4000.0);

  for (float bad : {std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    Tensor frame = base;
    frame.at(50, 20) = bad;
    EXPECT_FALSE(TiledFrame::FromTensor(frame).abs_sum() <= kMaxFrameAbsSum);
    EXPECT_FALSE(TiledFrame::FromDelta(frame, tiled, DiffFrames(frame, base),
                                       nullptr)
                     .abs_sum() <= kMaxFrameAbsSum);
  }
}

TEST(TiledFrameTest, FromDeltaAliasesCleanBlocks) {
  Tensor base = RandomFrame(64, 96, 7);  // 2 x 3 tiles
  Tensor next = base;
  next.data()[10 * 96 + 40] += 2.0f;  // tile (0, 1)
  TiledFrame base_tiled = TiledFrame::FromTensor(base);
  TileDirtySet dirty = DiffFrames(next, base);
  int64_t shared = 0;
  TiledFrame next_tiled =
      TiledFrame::FromDelta(next, base_tiled, dirty, &shared);
  EXPECT_EQ(shared, 5);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(next_tiled.SharesBlockWith(base_tiled, i, j),
                !(i == 0 && j == 1));
    }
  }
  // Cell reads and the materialized tensor reproduce the snapped `next`
  // exactly.
  const Tensor snapped = Snapped(next);
  Tensor round_trip = next_tiled.Materialize();
  for (int64_t r = 0; r < 64; ++r) {
    for (int64_t c = 0; c < 96; ++c) {
      ASSERT_EQ(next_tiled.at(r, c), snapped.at(r, c));
      ASSERT_EQ(round_trip.at(r, c), snapped.at(r, c));
    }
  }
}

// Ragged edges: tile multiples, one cell short/over in either axis, a
// single cell, and the 100x70 serving-test raster whose last tile row
// and column are short — the tile table must address every cell.
TEST(TiledFrameTest, TileTableReadsMatchMaterializeOnRaggedEdges) {
  const int64_t shapes[][2] = {{1, 1},    {31, 33},  {32, 32},
                               {33, 31},  {100, 70}, {128, 128}};
  uint64_t seed = 40;
  for (const auto& shape : shapes) {
    const Tensor frame = RandomFrame(shape[0], shape[1], ++seed);
    ExpectTileTableReadsMatch(TiledFrame::FromTensor(frame), frame);
  }

  // A delta frame: most tiles alias the base's blocks, the edited ones
  // are fresh — the table must point into both kinds.
  const Tensor base = RandomFrame(100, 70, 60);
  Tensor next = base;
  next.data()[5 * 70 + 3] += 1.0f;     // tile (0, 0)
  next.data()[99 * 70 + 69] -= 2.0f;   // tile (3, 2): the short corner
  const TiledFrame base_tiled = TiledFrame::FromTensor(base);
  int64_t shared = 0;
  const TiledFrame delta = TiledFrame::FromDelta(
      next, base_tiled, DiffFrames(next, base), &shared);
  EXPECT_EQ(shared, 4 * 3 - 2);
  EXPECT_TRUE(delta.SharesBlockWith(base_tiled, 1, 1));
  EXPECT_FALSE(delta.SharesBlockWith(base_tiled, 3, 2));
  ExpectTileTableReadsMatch(delta, next);
  // A copy shares the blocks, so its table stays valid after the
  // original is gone.
  TiledFrame copy;
  {
    const TiledFrame original = TiledFrame::FromTensor(next);
    copy = original;
  }
  ExpectTileTableReadsMatch(copy, next);
}

// The core exactness sweep: random frames at awkward geometries (tile
// multiples, off-by-one, sub-tile, single row/column) — a from-scratch
// tiled build must read the exact sums of the snapped cells, signed
// cells included.
TEST(TiledSatPlaneTest, BuildReadsExactSumsOfSnappedCells) {
  const int64_t geometries[][2] = {{64, 64},  {65, 63}, {1, 200},
                                   {200, 1},  {31, 31}, {32, 32},
                                   {33, 100}, {7, 5}};
  uint64_t seed = 11;
  for (const auto& g : geometries) {
    Tensor frame = RandomFrame(g[0], g[1], seed++);
    for (int64_t i = 0; i < frame.numel(); i += 2) frame.data()[i] -= 7.5f;
    ExpectExactSums(TiledSatPlane::Build(TiledFrame::FromTensor(frame)),
                    frame);
  }
}

// Incremental rebuild parity: randomized dirty rects — including
// adversarial shapes (tile-boundary straddles, single-row dirty rects) —
// must leave BuildDelta bit-identical to a full Build of the mutated
// frame and to its exact sums, while actually reusing the clean locals.
TEST(TiledSatPlaneTest, BuildDeltaBitIdenticalToFullRebuild) {
  const int64_t h = 130, w = 97;  // ragged: 5 x 4 tiles with remainders
  Tensor base = RandomFrame(h, w, 21);
  const TiledFrame base_tiled = TiledFrame::FromTensor(base);
  const TiledSatPlane base_plane = TiledSatPlane::Build(base_tiled);

  struct Rect {
    int64_t r0, c0, r1, c1;
  };
  std::vector<Rect> rects = {
      {31, 31, 34, 34},  // straddles a 2x2 tile corner
      {64, 0, 65, 97},   // single row on a tile boundary
      {0, 42, 130, 43},  // single column through every tile row
      {129, 96, 130, 97},// last ragged cell
      {0, 0, 1, 1},      // first cell
  };
  Rng rng(33);
  for (int i = 0; i < 10; ++i) {  // plus random rects
    int64_t r0 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(h)));
    int64_t c0 = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(w)));
    int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.UniformInt(40));
    int64_t c1 = c0 + 1 + static_cast<int64_t>(rng.UniformInt(40));
    rects.push_back({r0, c0, std::min(r1, h), std::min(c1, w)});
  }

  uint64_t noise = 1;
  for (const Rect& rect : rects) {
    Tensor next = base;
    for (int64_t r = rect.r0; r < rect.r1; ++r) {
      for (int64_t c = rect.c0; c < rect.c1; ++c) {
        next.data()[r * w + c] +=
            0.25f * static_cast<float>((noise++ % 7) + 1);
      }
    }
    TileDirtySet dirty(h, w);
    dirty.MarkRect(rect.r0, rect.c0, rect.r1, rect.c1);

    const TiledFrame next_tiled =
        TiledFrame::FromDelta(next, base_tiled, dirty, nullptr);
    int64_t reused = 0;
    const TiledSatPlane delta =
        TiledSatPlane::BuildDelta(next_tiled, base_plane, dirty, &reused);
    const TiledSatPlane full =
        TiledSatPlane::Build(TiledFrame::FromTensor(next));
    ExpectSamePrefixes(delta, full);
    ExpectExactSums(delta, next);

    // Clean locals were aliased, dirty ones rebuilt.
    EXPECT_EQ(reused, dirty.num_tiles() - dirty.CountDirty());
    for (int64_t ti = 0; ti < dirty.tiles_h(); ++ti) {
      for (int64_t tj = 0; tj < dirty.tiles_w(); ++tj) {
        EXPECT_EQ(delta.SharesLocalWith(base_plane, ti, tj),
                  !dirty.dirty(ti, tj))
            << "tile " << ti << "," << tj;
      }
    }
  }
}

// An all-clean delta (empty dirty set over a byte-identical frame) is
// pure aliasing: every local reused, prefixes bit-identical to the base.
TEST(TiledSatPlaneTest, NoOpDeltaReusesEveryTile) {
  Tensor frame = RandomFrame(96, 64, 41);
  const TiledFrame tiled = TiledFrame::FromTensor(frame);
  const TiledSatPlane base = TiledSatPlane::Build(tiled);
  TileDirtySet clean(96, 64);
  int64_t reused = 0;
  const TiledSatPlane delta =
      TiledSatPlane::BuildDelta(tiled, base, clean, &reused);
  EXPECT_EQ(reused, clean.num_tiles());
  ExpectSamePrefixes(delta, base);
}

}  // namespace
}  // namespace one4all
