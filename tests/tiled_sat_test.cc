// Tests for the tiled two-level SAT substrate (src/tensor/tiled_sat):
// the dirty-tile set semantics, copy-on-write tiled frames, and — the
// load-bearing property — that the tiled plane's prefix reads and rect
// sums are bit-identical to the monolithic SatPlane whether the plane
// was built from scratch or incrementally from a dirty set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/prefix_sum.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"

namespace one4all {
namespace {

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
// copy and the source tensor.
void ExpectTileTableReadsMatch(const TiledFrame& tiled, const Tensor& src) {
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

// Every prefix entry and a battery of rect sums must match the
// monolithic plane bit-for-bit (both accumulate in double with the same
// grouping, so == is the right comparison, not Near).
void ExpectBitIdentical(const TiledSatPlane& tiled, const SatPlane& flat,
                        int64_t h, int64_t w) {
  for (int64_t r = 0; r <= h; ++r) {
    for (int64_t c = 0; c <= w; ++c) {
      ASSERT_EQ(tiled.PrefixAt(r, c), flat.at(r, c))
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
    ASSERT_EQ(tiled.RectSum(r0, c0, r1, c1), flat.RectSum(r0, c0, r1, c1))
        << "rect (" << r0 << "," << c0 << ")-(" << r1 << "," << c1 << ")";
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

// Sum of [r0, r1) x [c0, c1) added cell by cell in row-major order: the
// same double a plane's RectSum reads off whenever no step rounds.
double RowMajorSum(const Tensor& frame, int64_t r0, int64_t c0, int64_t r1,
                   int64_t c1) {
  double sum = 0.0;
  for (int64_t r = r0; r < r1; ++r) {
    for (int64_t c = c0; c < c1; ++c) sum += frame.at(r, c);
  }
  return sum;
}

// Integer counts and quarter steps pass; mixed magnitudes, non-finite
// cells and sums past 2^50 q do not. Where the predicate holds, every
// rect sum of the tiled plane is the exact sum of the rect's cells.
TEST(SatSumsExactTest, HoldsExactlyWhenNoPrefixSumRounds) {
  Rng rng(77);
  Tensor counts({100, 70});
  for (int64_t i = 0; i < counts.numel(); ++i) {
    counts.data()[i] =
        static_cast<float>(rng.UniformInt(60)) * (i % 3 == 0 ? -0.25f : 1.0f);
  }
  EXPECT_TRUE(SatSumsExact(counts));
  EXPECT_TRUE(SatSumsExact(Tensor({33, 65})));  // all zeros

  const TiledSatPlane plane =
      TiledSatPlane::Build(TiledFrame::FromTensor(counts));
  for (int i = 0; i < 300; ++i) {
    const int64_t r0 = static_cast<int64_t>(rng.UniformInt(100));
    const int64_t c0 = static_cast<int64_t>(rng.UniformInt(70));
    const int64_t r1 = r0 + static_cast<int64_t>(rng.UniformInt(
                                static_cast<uint64_t>(100 - r0) + 1));
    const int64_t c1 = c0 + static_cast<int64_t>(rng.UniformInt(
                                static_cast<uint64_t>(70 - c0) + 1));
    ASSERT_EQ(plane.RectSum(r0, c0, r1, c1),
              RowMajorSum(counts, r0, c0, r1, c1));
  }

  Tensor mixed = counts;
  mixed.at(7, 7) = 1e-7f;
  EXPECT_FALSE(SatSumsExact(mixed));
  Tensor subnormal({4, 4});
  subnormal.at(1, 1) = 1e-40f;
  EXPECT_TRUE(SatSumsExact(subnormal));
  subnormal.at(2, 2) = 1.0f;  // 2^149 quanta of 2^-149: past 2^50
  EXPECT_FALSE(SatSumsExact(subnormal));
  Tensor huge({2, 2});
  huge.at(0, 0) = 1e16f;  // an integer, but past 2^50 of its quantum
  huge.at(1, 1) = 1.0f;
  EXPECT_FALSE(SatSumsExact(huge));
  for (float bad : {std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    Tensor frame = counts;
    frame.at(50, 20) = bad;
    EXPECT_FALSE(SatSumsExact(frame));
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
  // Cell reads and the materialized tensor reproduce `next` exactly.
  Tensor round_trip = next_tiled.Materialize();
  for (int64_t r = 0; r < 64; ++r) {
    for (int64_t c = 0; c < 96; ++c) {
      ASSERT_EQ(next_tiled.at(r, c), next.at(r, c));
      ASSERT_EQ(round_trip.at(r, c), next.at(r, c));
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

// The core parity sweep: random frames at awkward geometries (tile
// multiples, off-by-one, sub-tile, single row/column) — a from-scratch
// tiled build must match the monolithic plane bit-for-bit.
TEST(TiledSatPlaneTest, BuildMatchesMonolithicBitForBit) {
  const int64_t geometries[][2] = {{64, 64},  {65, 63}, {1, 200},
                                   {200, 1},  {31, 31}, {32, 32},
                                   {33, 100}, {7, 5}};
  uint64_t seed = 11;
  for (const auto& g : geometries) {
    Tensor frame = RandomFrame(g[0], g[1], seed++);
    const TiledSatPlane tiled =
        TiledSatPlane::Build(TiledFrame::FromTensor(frame));
    const SatPlane flat = BuildSatPlane(frame);
    ExpectBitIdentical(tiled, flat, g[0], g[1]);
    // Materialize round-trips into a bit-identical monolithic plane.
    const SatPlane materialized = tiled.Materialize();
    ASSERT_EQ(materialized.numel(), flat.numel());
    for (int64_t i = 0; i < flat.numel(); ++i) {
      ASSERT_EQ(materialized.data()[i], flat.data()[i]);
    }
  }
}

// Incremental rebuild parity: randomized dirty rects — including the
// ISSUE-pinned adversarial shapes (tile-boundary straddles, single-row
// dirty rects) — must leave BuildDelta bit-identical to a full Build of
// the mutated frame, while actually reusing the clean locals.
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
    ExpectBitIdentical(delta, full.Materialize(), h, w);

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
  ExpectBitIdentical(delta, base.Materialize(), 96, 64);
}

}  // namespace
}  // namespace one4all
