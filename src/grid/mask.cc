#include "grid/mask.h"

#include <algorithm>
#include <sstream>

namespace one4all {

namespace {

// Calls fn(word_index, mask) for every packed word overlapping the bit
// range [b0, b1); `mask` selects exactly the range's bits in that word.
template <typename Fn>
void ForEachWordInBitRange(int64_t b0, int64_t b1, Fn&& fn) {
  if (b0 >= b1) return;
  const int64_t w0 = b0 >> 6, w1 = (b1 - 1) >> 6;
  for (int64_t wi = w0; wi <= w1; ++wi) {
    uint64_t mask = ~uint64_t{0};
    if (wi == w0) mask &= ~uint64_t{0} << (static_cast<uint64_t>(b0) & 63);
    if (wi == w1) {
      const uint64_t top = static_cast<uint64_t>(b1 - 1) & 63;
      mask &= ~uint64_t{0} >> (63 - top);
    }
    fn(static_cast<size_t>(wi), mask);
  }
}

}  // namespace

int64_t GridMask::Count() const {
  int64_t count = 0;
  for (size_t i = span_begin_; i < span_end_; ++i) {
    count += __builtin_popcountll(words_[i]);
  }
  return count;
}

int64_t GridMask::CountRows(int64_t r0, int64_t r1) const {
  O4A_DCHECK(r0 >= 0 && r0 <= r1 && r1 <= h_);
  int64_t count = 0;
  ForEachWordInBitRange(r0 * w_, r1 * w_, [&](size_t wi, uint64_t mask) {
    count += __builtin_popcountll(words_[wi] & mask);
  });
  return count;
}

int64_t GridMask::FirstSetRow() const {
  for (size_t wi = span_begin_; wi < span_end_; ++wi) {
    if (words_[wi] == 0) continue;
    const int64_t bit =
        (static_cast<int64_t>(wi) << 6) + __builtin_ctzll(words_[wi]);
    return bit / w_;
  }
  return -1;
}

void GridMask::FillRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
  O4A_CHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_ && r0 <= r1 &&
            c0 <= c1);
  if (r0 == r1 || c0 == c1) return;
  GrowSpan(static_cast<size_t>((r0 * w_ + c0) >> 6),
           static_cast<size_t>(((r1 - 1) * w_ + c1 - 1) >> 6) + 1);
  for (int64_t r = r0; r < r1; ++r) {
    ForEachWordInBitRange(r * w_ + c0, r * w_ + c1,
                          [&](size_t wi, uint64_t mask) {
                            words_[wi] |= mask;
                          });
  }
}

bool GridMask::ContainsRect(int64_t r0, int64_t c0, int64_t r1,
                            int64_t c1) const {
  if (r0 < 0 || c0 < 0 || r1 > h_ || c1 > w_ || r0 >= r1 || c0 >= c1) {
    return false;
  }
  for (int64_t r = r0; r < r1; ++r) {
    bool full = true;
    ForEachWordInBitRange(r * w_ + c0, r * w_ + c1,
                          [&](size_t wi, uint64_t mask) {
                            if ((words_[wi] & mask) != mask) full = false;
                          });
    if (!full) return false;
  }
  return true;
}

void GridMask::ClearRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
  O4A_CHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
  for (int64_t r = r0; r < r1; ++r) {
    ForEachWordInBitRange(r * w_ + c0, r * w_ + c1,
                          [&](size_t wi, uint64_t mask) {
                            words_[wi] &= ~mask;
                          });
  }
}

GridMask GridMask::Union(const GridMask& other) const {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  GridMask out(h_, w_);
  out.GrowSpan(span_begin_, span_end_);
  out.GrowSpan(other.span_begin_, other.span_end_);
  for (size_t i = out.span_begin_; i < out.span_end_; ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

GridMask GridMask::Intersect(const GridMask& other) const {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  GridMask out(h_, w_);
  out.GrowSpan(std::max(span_begin_, other.span_begin_),
               std::min(span_end_, other.span_end_));
  for (size_t i = out.span_begin_; i < out.span_end_; ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

GridMask GridMask::Subtract(const GridMask& other) const {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  GridMask out(h_, w_);
  out.GrowSpan(span_begin_, span_end_);
  for (size_t i = out.span_begin_; i < out.span_end_; ++i) {
    out.words_[i] = words_[i] & ~other.words_[i];
  }
  return out;
}

bool GridMask::Intersects(const GridMask& other) const {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  const size_t end = std::min(span_end_, other.span_end_);
  for (size_t i = std::max(span_begin_, other.span_begin_); i < end; ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

bool GridMask::Contains(const GridMask& other) const {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  for (size_t i = other.span_begin_; i < other.span_end_; ++i) {
    if (other.words_[i] & ~words_[i]) return false;
  }
  return true;
}

double GridMask::MaskedSum(const Tensor& field) const {
  O4A_DCHECK(field.ndim() == 2 && field.dim(0) == h_ && field.dim(1) == w_)
      << "MaskedSum wants a [H,W] field matching the mask";
  double acc = 0.0;
  const float* p = field.data();
  for (size_t wi = span_begin_; wi < span_end_; ++wi) {
    uint64_t word = words_[wi];
    const int64_t base = static_cast<int64_t>(wi) << 6;
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      acc += p[base + bit];
      word &= word - 1;  // clear lowest set bit
    }
  }
  return acc;
}

std::string GridMask::ToString() const {
  std::ostringstream oss;
  for (int64_t r = 0; r < h_; ++r) {
    for (int64_t c = 0; c < w_; ++c) oss << (at(r, c) ? '#' : '.');
    oss << "\n";
  }
  return oss.str();
}

void SignedMask::AccumulateRect(int64_t r0, int64_t c0, int64_t r1,
                                int64_t c1, int8_t sign) {
  O4A_CHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
  for (int64_t r = r0; r < r1; ++r) {
    for (int64_t c = c0; c < c1; ++c) {
      cells_[static_cast<size_t>(r * w_ + c)] =
          static_cast<int8_t>(cells_[static_cast<size_t>(r * w_ + c)] + sign);
    }
  }
}

void SignedMask::Accumulate(const SignedMask& other) {
  O4A_CHECK(h_ == other.h_ && w_ == other.w_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] = static_cast<int8_t>(cells_[i] + other.cells_[i]);
  }
}

bool SignedMask::EqualsRegion(const GridMask& region) const {
  O4A_CHECK(h_ == region.height() && w_ == region.width());
  for (int64_t r = 0; r < h_; ++r) {
    for (int64_t c = 0; c < w_; ++c) {
      if (at(r, c) != (region.at(r, c) ? 1 : 0)) return false;
    }
  }
  return true;
}

std::string SignedMask::ToString() const {
  std::ostringstream oss;
  for (int64_t r = 0; r < h_; ++r) {
    for (int64_t c = 0; c < w_; ++c) {
      const int8_t v = at(r, c);
      oss << (v == 0 ? '.' : (v == 1 ? '+' : (v == -1 ? '-' : '?')));
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace one4all
