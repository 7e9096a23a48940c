// Randomized property tests for the word-packed GridMask: every packed
// set operation is checked against a byte-per-cell reference model over
// random masks and rectangles, including widths that are not multiples of
// 64 (so ranges straddle word boundaries), the trailing-bit invariant
// the packed equality/fingerprint paths rely on, and the conservative
// word span every whole-mask sweep reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "grid/mask.h"
#include "query/resolved_query_cache.h"

namespace one4all {
namespace {

// Byte-per-cell reference model mirroring the packed mask's semantics.
struct ByteMask {
  int64_t h = 0, w = 0;
  std::vector<uint8_t> cells;

  ByteMask(int64_t h_in, int64_t w_in)
      : h(h_in), w(w_in), cells(static_cast<size_t>(h * w), 0) {}

  uint8_t& at(int64_t r, int64_t c) {
    return cells[static_cast<size_t>(r * w + c)];
  }
  uint8_t at(int64_t r, int64_t c) const {
    return cells[static_cast<size_t>(r * w + c)];
  }
};

GridMask ToPacked(const ByteMask& m) {
  GridMask out(m.h, m.w);
  for (int64_t r = 0; r < m.h; ++r) {
    for (int64_t c = 0; c < m.w; ++c) {
      if (m.at(r, c)) out.Set(r, c, true);
    }
  }
  return out;
}

void ExpectSame(const GridMask& packed, const ByteMask& ref) {
  ASSERT_EQ(packed.height(), ref.h);
  ASSERT_EQ(packed.width(), ref.w);
  for (int64_t r = 0; r < ref.h; ++r) {
    for (int64_t c = 0; c < ref.w; ++c) {
      ASSERT_EQ(packed.at(r, c), ref.at(r, c) != 0)
          << "cell (" << r << "," << c << ")";
    }
  }
}

// Uniform integer in [lo, hi] (inclusive).
int64_t RandInt(Rng* rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  rng->UniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

ByteMask RandomByteMask(int64_t h, int64_t w, double density, Rng* rng) {
  ByteMask m(h, w);
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      if (rng->Uniform() < density) m.at(r, c) = 1;
    }
  }
  return m;
}

void CheckTrailingBitsZero(const GridMask& mask) {
  const int64_t bits = mask.height() * mask.width();
  if (mask.words().empty()) return;
  const int64_t used_in_last = bits - 64 * (static_cast<int64_t>(
                                               mask.words().size()) -
                                           1);
  if (used_in_last == 64) return;
  const uint64_t junk =
      mask.words().back() &
      (~uint64_t{0} << static_cast<uint64_t>(used_in_last));
  EXPECT_EQ(junk, 0u);
}

// Extents chosen so bit ranges land inside words, straddle boundaries,
// and end exactly on them.
const int64_t kExtents[][2] = {{1, 1},   {3, 5},   {7, 64},  {9, 65},
                               {13, 63}, {32, 32}, {5, 128}, {11, 100}};

TEST(MaskPackedPropertyTest, SetOpsMatchByteReference) {
  Rng rng(2024);
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    for (int round = 0; round < 20; ++round) {
      const double da = rng.Uniform(), db = rng.Uniform();
      const ByteMask ra = RandomByteMask(h, w, da, &rng);
      const ByteMask rb = RandomByteMask(h, w, db, &rng);
      const GridMask a = ToPacked(ra), b = ToPacked(rb);

      ByteMask want_union(h, w), want_inter(h, w), want_sub(h, w);
      bool want_intersects = false, want_contains = true;
      int64_t want_count = 0;
      for (int64_t r = 0; r < h; ++r) {
        for (int64_t c = 0; c < w; ++c) {
          const bool va = ra.at(r, c) != 0, vb = rb.at(r, c) != 0;
          want_union.at(r, c) = va || vb;
          want_inter.at(r, c) = va && vb;
          want_sub.at(r, c) = va && !vb;
          want_intersects = want_intersects || (va && vb);
          want_contains = want_contains && (!vb || va);
          want_count += va ? 1 : 0;
        }
      }

      ExpectSame(a.Union(b), want_union);
      ExpectSame(a.Intersect(b), want_inter);
      ExpectSame(a.Subtract(b), want_sub);
      EXPECT_EQ(a.Intersects(b), want_intersects);
      EXPECT_EQ(a.Contains(b), want_contains);
      EXPECT_EQ(a.Count(), want_count);
      CheckTrailingBitsZero(a.Union(b));
      CheckTrailingBitsZero(a.Subtract(b));
    }
  }
}

TEST(MaskPackedPropertyTest, RectOpsMatchByteReference) {
  Rng rng(77);
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    for (int round = 0; round < 25; ++round) {
      ByteMask ref = RandomByteMask(h, w, 0.4, &rng);
      GridMask packed = ToPacked(ref);

      const int64_t r0 = RandInt(&rng, 0, h - 1), c0 = RandInt(&rng, 0, w - 1);
      const int64_t r1 = RandInt(&rng, r0, h), c1 = RandInt(&rng, c0, w);

      // ContainsRect parity before mutation.
      bool want_full = r1 > r0 && c1 > c0;
      for (int64_t r = r0; r < r1 && want_full; ++r) {
        for (int64_t c = c0; c < c1; ++c) {
          if (!ref.at(r, c)) {
            want_full = false;
            break;
          }
        }
      }
      EXPECT_EQ(packed.ContainsRect(r0, c0, r1, c1), want_full);

      if (round % 2 == 0) {
        packed.FillRect(r0, c0, r1, c1);
        for (int64_t r = r0; r < r1; ++r) {
          for (int64_t c = c0; c < c1; ++c) ref.at(r, c) = 1;
        }
        EXPECT_TRUE(r1 == r0 || c1 == c0 ||
                    packed.ContainsRect(r0, c0, r1, c1));
      } else {
        packed.ClearRect(r0, c0, r1, c1);
        for (int64_t r = r0; r < r1; ++r) {
          for (int64_t c = c0; c < c1; ++c) ref.at(r, c) = 0;
        }
      }
      ExpectSame(packed, ref);
      CheckTrailingBitsZero(packed);
    }
  }
}

TEST(MaskPackedPropertyTest, EqualityAndSetClearRoundTrip) {
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    const int64_t h = RandInt(&rng, 1, 20), w = RandInt(&rng, 1, 90);
    const ByteMask ref = RandomByteMask(h, w, 0.5, &rng);
    GridMask a = ToPacked(ref), b = ToPacked(ref);
    EXPECT_TRUE(a == b);
    const int64_t r = RandInt(&rng, 0, h - 1), c = RandInt(&rng, 0, w - 1);
    const bool was = a.at(r, c);
    a.Set(r, c, !was);
    EXPECT_FALSE(a == b);
    EXPECT_EQ(a.Count(), b.Count() + (was ? -1 : 1));
    a.Set(r, c, was);
    EXPECT_TRUE(a == b);
  }
}

TEST(MaskPackedPropertyTest, MaskedSumMatchesCellLoop) {
  Rng rng(9);
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    const ByteMask ref = RandomByteMask(h, w, 0.3, &rng);
    const GridMask packed = ToPacked(ref);
    Tensor field = Tensor::RandomNormal({h, w}, &rng);
    double want = 0.0;
    for (int64_t r = 0; r < h; ++r) {
      for (int64_t c = 0; c < w; ++c) {
        if (ref.at(r, c)) want += field.at(r, c);
      }
    }
    EXPECT_NEAR(packed.MaskedSum(field), want, 1e-6);
  }
}

TEST(MaskPackedPropertyTest, FingerprintInsensitiveToHistory) {
  // Two masks with equal cells must fingerprint identically no matter how
  // they were built (Set vs FillRect vs set-then-clear), since the cache
  // keys on content.
  GridMask a(9, 70), b(9, 70);
  a.FillRect(2, 10, 7, 66);
  for (int64_t r = 2; r < 7; ++r) {
    for (int64_t c = 10; c < 66; ++c) b.Set(r, c, true);
  }
  b.Set(0, 0, true);
  b.Set(0, 0, false);
  // b's span now starts at word 0 while a's starts at its first set
  // word: the span is not part of identity.
  EXPECT_NE(a.span_begin(), b.span_begin());
  EXPECT_TRUE(a == b);
  const auto fa =
      FingerprintRegion(a, QueryStrategy::kUnionSubtraction);
  const auto fb =
      FingerprintRegion(b, QueryStrategy::kUnionSubtraction);
  EXPECT_TRUE(fa == fb);
  // And strategy is part of the key.
  const auto fu = FingerprintRegion(a, QueryStrategy::kUnion);
  EXPECT_FALSE(fa == fu);
}

// Full-sweep references for the span-reading GridMask/fingerprint paths:
// each reads every word, so a span that missed a set word would show as
// a disagreement.
bool FullSweepEmpty(const GridMask& m) {
  for (const uint64_t word : m.words()) {
    if (word != 0) return false;
  }
  return true;
}

int64_t FullSweepCount(const GridMask& m) {
  int64_t count = 0;
  for (const uint64_t word : m.words()) count += __builtin_popcountll(word);
  return count;
}

int64_t FullSweepFirstSetRow(const GridMask& m) {
  const std::vector<uint64_t>& words = m.words();
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i] == 0) continue;
    return ((static_cast<int64_t>(i) << 6) + __builtin_ctzll(words[i])) /
           m.width();
  }
  return -1;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The resolve-cache key as a sweep over every word: pins the hash, so a
// span-reading FingerprintRegion must stay bit-identical to it.
RegionFingerprint FullSweepFingerprint(const GridMask& m,
                                       QueryStrategy strategy) {
  const uint64_t s = static_cast<uint64_t>(strategy);
  uint64_t lo = Mix64(0x0123456789abcdefull ^ s);
  uint64_t hi = Mix64(0xfedcba9876543210ull ^ s);
  const uint64_t h = static_cast<uint64_t>(m.height());
  const uint64_t w = static_cast<uint64_t>(m.width());
  lo = Mix64(Mix64(lo ^ h) ^ w);
  hi = Mix64(Mix64(hi ^ h) ^ w);
  const std::vector<uint64_t>& words = m.words();
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i] == 0) continue;
    lo = Mix64(Mix64(lo ^ i) ^ words[i]);
    hi = Mix64(Mix64(hi ^ i) ^ words[i]);
  }
  return RegionFingerprint{lo, hi};
}

// Span invariant plus every span-reading sweep against its reference.
void CheckSpan(const GridMask& m, const std::string& where) {
  SCOPED_TRACE(where);
  const std::vector<uint64_t>& words = m.words();
  ASSERT_LE(m.span_begin(), m.span_end());
  ASSERT_LE(m.span_end(), words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    if (i < m.span_begin() || i >= m.span_end()) {
      ASSERT_EQ(words[i], 0u) << "set word " << i << " outside span ["
                              << m.span_begin() << "," << m.span_end()
                              << ")";
    }
  }
  EXPECT_EQ(m.Empty(), FullSweepEmpty(m));
  EXPECT_EQ(m.Count(), FullSweepCount(m));
  EXPECT_EQ(m.FirstSetRow(), FullSweepFirstSetRow(m));
  EXPECT_TRUE(FingerprintRegion(m, QueryStrategy::kUnionSubtraction) ==
              FullSweepFingerprint(m, QueryStrategy::kUnionSubtraction));
}

TEST(MaskPackedPropertyTest, SpanHoldsSetWordsUnderRandomHistories) {
  // Seeded random op sequences over a pool of masks. Clears leave spans
  // wide, set ops combine them, so spans drift far from the set words;
  // the invariant and the sweeps must hold after every step, and a mask
  // rebuilt from the same cells (a tight span) must compare and
  // fingerprint equal to the one with a long history.
  const int64_t extents[][2] = {{7, 9}, {13, 64}, {9, 65}, {128, 128}};
  Rng rng(31337);
  for (const auto& extent : extents) {
    const int64_t h = extent[0], w = extent[1];
    std::vector<GridMask> pool(3, GridMask(h, w));
    std::vector<ByteMask> refs(3, ByteMask(h, w));
    for (int step = 0; step < 300; ++step) {
      const size_t a = rng.UniformInt(3), b = rng.UniformInt(3);
      const int64_t r0 = RandInt(&rng, 0, h - 1), c0 = RandInt(&rng, 0, w - 1);
      // Mostly small rects, like zones; sometimes up to the full extent.
      const int64_t reach = rng.Uniform() < 0.2 ? h + w : 4;
      const int64_t r1 = std::min(h, r0 + RandInt(&rng, 0, reach));
      const int64_t c1 = std::min(w, c0 + RandInt(&rng, 0, reach));
      const int op = static_cast<int>(rng.UniformInt(6));
      std::string name;
      switch (op) {
        case 0: {
          const bool value = rng.Uniform() < 0.6;
          pool[a].Set(r0, c0, value);
          refs[a].at(r0, c0) = value;
          name = "Set";
          break;
        }
        case 1:
        case 2: {
          const bool fill = op == 1;
          if (fill) {
            pool[a].FillRect(r0, c0, r1, c1);
          } else {
            pool[a].ClearRect(r0, c0, r1, c1);
          }
          for (int64_t r = r0; r < r1; ++r) {
            for (int64_t c = c0; c < c1; ++c) refs[a].at(r, c) = fill;
          }
          name = fill ? "FillRect" : "ClearRect";
          break;
        }
        default: {
          ByteMask want(h, w);
          for (size_t i = 0; i < want.cells.size(); ++i) {
            const bool va = refs[a].cells[i] != 0, vb = refs[b].cells[i] != 0;
            want.cells[i] = op == 3 ? (va || vb)
                                    : op == 4 ? (va && vb) : (va && !vb);
          }
          pool[a] = op == 3   ? pool[a].Union(pool[b])
                    : op == 4 ? pool[a].Intersect(pool[b])
                              : pool[a].Subtract(pool[b]);
          refs[a] = want;
          name = op == 3 ? "Union" : op == 4 ? "Intersect" : "Subtract";
          break;
        }
      }
      const std::string where = std::to_string(h) + "x" + std::to_string(w) +
                                " step " + std::to_string(step) + " " + name;
      ExpectSame(pool[a], refs[a]);
      CheckSpan(pool[a], where);
      CheckTrailingBitsZero(pool[a]);
      // Queries across two masks with unrelated spans.
      bool want_intersects = false, want_contains = true;
      for (size_t i = 0; i < refs[a].cells.size(); ++i) {
        const bool va = refs[a].cells[i] != 0, vb = refs[b].cells[i] != 0;
        want_intersects = want_intersects || (va && vb);
        want_contains = want_contains && (!vb || va);
      }
      EXPECT_EQ(pool[a].Intersects(pool[b]), want_intersects) << where;
      EXPECT_EQ(pool[a].Contains(pool[b]), want_contains) << where;
      // Same cells, different history: equal and fingerprint-equal.
      const GridMask rebuilt = ToPacked(refs[a]);
      EXPECT_TRUE(rebuilt == pool[a]) << where;
      EXPECT_TRUE(
          FingerprintRegion(rebuilt, QueryStrategy::kUnionSubtraction) ==
          FingerprintRegion(pool[a], QueryStrategy::kUnionSubtraction))
          << where;
      // A copy carries the span; a moved-from mask reads as empty.
      GridMask copy = pool[a];
      EXPECT_EQ(copy.span_begin(), pool[a].span_begin());
      EXPECT_EQ(copy.span_end(), pool[a].span_end());
      const GridMask moved = std::move(copy);
      EXPECT_TRUE(copy.Empty());
      EXPECT_TRUE(moved == pool[a]);
    }
  }
}

TEST(MaskPackedPropertyTest, EmptyAgreesWithCount) {
  // Empty() stops at the first set word instead of counting; it must
  // agree with Count() == 0 on all-zero masks, on masks whose only set
  // cell is the very last one (ragged widths leave unused trailing bits
  // in that word), and on random densities.
  Rng rng(4242);
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    GridMask zero(h, w);
    EXPECT_TRUE(zero.Empty());
    EXPECT_EQ(zero.Count(), 0);
    GridMask last(h, w);
    last.Set(h - 1, w - 1, true);
    EXPECT_FALSE(last.Empty());
    last.Set(h - 1, w - 1, false);
    EXPECT_TRUE(last.Empty());
    for (int round = 0; round < 30; ++round) {
      const double density = round % 3 == 0 ? 0.0 : rng.Uniform() * 0.05;
      const GridMask m = ToPacked(RandomByteMask(h, w, density, &rng));
      EXPECT_EQ(m.Empty(), m.Count() == 0);
    }
  }
}

TEST(MaskPackedPropertyTest, RowCountsAndFirstRowMatchByteReference) {
  // CountRows popcounts a row range's bit span and FirstSetRow reads the
  // first non-zero word; both agree with the byte model on every row
  // range, including rows whose bits share a word with their neighbours.
  Rng rng(5151);
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    for (int round = 0; round < 20; ++round) {
      const double density = round % 4 == 0 ? 0.0 : rng.Uniform() * 0.2;
      const ByteMask ref = RandomByteMask(h, w, density, &rng);
      const GridMask m = ToPacked(ref);
      int64_t first_row = -1;
      for (int64_t r = h - 1; r >= 0; --r) {
        for (int64_t c = 0; c < w; ++c) {
          if (ref.at(r, c)) first_row = r;
        }
      }
      EXPECT_EQ(m.FirstSetRow(), first_row);
      const int64_t r0 = RandInt(&rng, 0, h);
      const int64_t r1 = RandInt(&rng, r0, h);
      int64_t count = 0;
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = 0; c < w; ++c) count += ref.at(r, c);
      }
      EXPECT_EQ(m.CountRows(r0, r1), count)
          << h << "x" << w << " rows [" << r0 << "," << r1 << ")";
      EXPECT_EQ(m.CountRows(0, h), m.Count());
    }
    GridMask last(h, w);
    last.Set(h - 1, w - 1, true);
    EXPECT_EQ(last.FirstSetRow(), h - 1);
    EXPECT_EQ(last.CountRows(h - 1, h), 1);
  }
}

TEST(MaskPackedPropertyTest, OneCellApartNeverCollides) {
  // Seeded sample: every mask and each of its one-cell flips fingerprint
  // apart, and a fingerprint seen twice always names the same content.
  Rng rng(99);
  std::unordered_map<RegionFingerprint, std::string, RegionFingerprintHash>
      content_of;
  auto fingerprint = [&](const GridMask& m) {
    const RegionFingerprint fp =
        FingerprintRegion(m, QueryStrategy::kUnionSubtraction);
    const std::string content = std::to_string(m.height()) + "x" +
                                std::to_string(m.width()) + "\n" +
                                m.ToString();
    const auto inserted = content_of.emplace(fp, content);
    EXPECT_EQ(inserted.first->second, content) << "fingerprint collision";
    return fp;
  };
  for (const auto& extent : kExtents) {
    const int64_t h = extent[0], w = extent[1];
    for (int round = 0; round < 40; ++round) {
      const GridMask base =
          ToPacked(RandomByteMask(h, w, rng.Uniform() * 0.3, &rng));
      const RegionFingerprint fp_base = fingerprint(base);
      for (int flip = 0; flip < 4; ++flip) {
        GridMask other = base;
        const int64_t r = RandInt(&rng, 0, h - 1);
        const int64_t c = RandInt(&rng, 0, w - 1);
        other.Set(r, c, !other.at(r, c));
        EXPECT_FALSE(fp_base == fingerprint(other))
            << h << "x" << w << " flip (" << r << "," << c << ")";
      }
    }
  }
  EXPECT_GT(content_of.size(), 1000u);
}

}  // namespace
}  // namespace one4all
