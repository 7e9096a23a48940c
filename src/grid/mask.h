// Rasterized regions (Definition 4): binary assignment matrices over the
// atomic raster, plus the signed masks produced by combination search
// (union = +1, subtraction = -1).
#ifndef ONE4ALL_GRID_MASK_H_
#define ONE4ALL_GRID_MASK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "tensor/tensor.h"

namespace one4all {

/// \brief Binary H x W assignment matrix A^R (Definition 4).
///
/// Cells are packed 64 per uint64_t word (bit index r*W + c, row-major),
/// so the set algebra (Union / Intersect / Subtract / Intersects /
/// Contains) and Count run word-parallel — one AND/OR/popcount per 64
/// cells instead of a byte loop. Bits past H*W in the last word are kept
/// zero (the class invariant every mutator preserves), which lets
/// equality, emptiness and fingerprinting compare raw words.
///
/// The mask also carries a conservative word span [span_begin,
/// span_end) that holds every non-zero word: setting cells grows it,
/// clearing cells leaves it as it is, and each set operation gives its
/// result a span covering the result's non-zero words. Whole-mask sweeps
/// (Count, Empty, FirstSetRow, MaskedSum, the set algebra, and the
/// query path's fingerprint and footprint) read only the span, so their
/// cost follows a region's set words rather than the raster size. The
/// span is never part of a mask's identity: two masks with equal cells
/// compare equal whatever their spans.
class GridMask {
 public:
  GridMask() = default;
  GridMask(int64_t h, int64_t w)
      : h_(h), w_(w), words_(static_cast<size_t>((h * w + 63) / 64), 0) {}
  GridMask(const GridMask&) = default;
  GridMask& operator=(const GridMask&) = default;
  // A moved-from mask keeps its extents but loses its words, so its span
  // is reset with them and it reads as empty.
  GridMask(GridMask&& other) noexcept
      : h_(other.h_),
        w_(other.w_),
        words_(std::move(other.words_)),
        span_begin_(std::exchange(other.span_begin_, 0)),
        span_end_(std::exchange(other.span_end_, 0)) {}
  GridMask& operator=(GridMask&& other) noexcept {
    h_ = other.h_;
    w_ = other.w_;
    words_ = std::move(other.words_);
    span_begin_ = std::exchange(other.span_begin_, 0);
    span_end_ = std::exchange(other.span_end_, 0);
    return *this;
  }

  int64_t height() const { return h_; }
  int64_t width() const { return w_; }

  bool at(int64_t r, int64_t c) const {
    O4A_DCHECK(InBounds(r, c));
    const int64_t bit = r * w_ + c;
    return (words_[static_cast<size_t>(bit >> 6)] >>
            (static_cast<uint64_t>(bit) & 63)) &
           1u;
  }
  void Set(int64_t r, int64_t c, bool value) {
    O4A_DCHECK(InBounds(r, c));
    const int64_t bit = r * w_ + c;
    const uint64_t mask = uint64_t{1} << (static_cast<uint64_t>(bit) & 63);
    const size_t wi = static_cast<size_t>(bit >> 6);
    if (value) {
      words_[wi] |= mask;
      GrowSpan(wi, wi + 1);
    } else {
      words_[wi] &= ~mask;
    }
  }
  bool InBounds(int64_t r, int64_t c) const {
    return r >= 0 && r < h_ && c >= 0 && c < w_;
  }

  /// \brief Packed cell words, bit index r*W + c; trailing bits are zero.
  const std::vector<uint64_t>& words() const { return words_; }
  /// \brief Conservative word span: every non-zero word index lies in
  /// [span_begin(), span_end()); words outside it are zero. May be wider
  /// than the set words after cells are cleared; empty (begin == end)
  /// only when the mask is.
  size_t span_begin() const { return span_begin_; }
  size_t span_end() const { return span_end_; }

  /// \brief Number of cells set to 1.
  int64_t Count() const;
  /// \brief Number of set cells in rows [r0, r1): one popcount per word
  /// of the rows' bit span.
  int64_t CountRows(int64_t r0, int64_t r1) const;
  /// \brief Row of the first set cell in row-major order (-1 when
  /// empty): the lowest set bit of the first non-zero word, divided by W.
  int64_t FirstSetRow() const;
  /// \brief True iff no cell is set; stops at the first non-zero word
  /// of the span.
  bool Empty() const {
    for (size_t i = span_begin_; i < span_end_; ++i) {
      if (words_[i] != 0) return false;
    }
    return true;
  }

  /// \brief Marks every cell of the rectangle [r0,r1) x [c0,c1).
  void FillRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1);

  /// \brief True iff every cell of the rectangle is set.
  bool ContainsRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const;

  /// \brief Removes every cell of the rectangle.
  void ClearRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1);

  GridMask Union(const GridMask& other) const;
  GridMask Intersect(const GridMask& other) const;
  /// \brief Cells in this mask but not in `other`.
  GridMask Subtract(const GridMask& other) const;
  bool Intersects(const GridMask& other) const;
  /// \brief True iff `other` is a subset of this mask.
  bool Contains(const GridMask& other) const;

  bool operator==(const GridMask& other) const {
    return h_ == other.h_ && w_ == other.w_ && words_ == other.words_;
  }

  /// \brief Returns the sum of `field` over this mask's set cells.
  /// `field` must be a 2-D [H,W] tensor whose extents equal the mask's
  /// (shape enforced with O4A_DCHECK); multi-channel [C,H,W] fields are
  /// not accepted — callers sum each channel's [H,W] plane separately.
  double MaskedSum(const Tensor& field) const;

  /// \brief ASCII art for debugging ('#' = 1, '.' = 0).
  std::string ToString() const;

 private:
  // Widens the span to cover words [begin, end); no-op when begin >= end.
  void GrowSpan(size_t begin, size_t end) {
    if (begin >= end) return;
    if (span_begin_ >= span_end_) {
      span_begin_ = begin;
      span_end_ = end;
      return;
    }
    if (begin < span_begin_) span_begin_ = begin;
    if (end > span_end_) span_end_ = end;
  }

  int64_t h_ = 0, w_ = 0;
  std::vector<uint64_t> words_;
  size_t span_begin_ = 0, span_end_ = 0;
};

/// \brief Signed combination mask: entries in {-1, 0, +1} on the atomic
/// raster — the As matrices of Eq. 3 after the mapping function.
class SignedMask {
 public:
  SignedMask() = default;
  SignedMask(int64_t h, int64_t w)
      : h_(h), w_(w), cells_(static_cast<size_t>(h * w), 0) {}

  int64_t height() const { return h_; }
  int64_t width() const { return w_; }

  int8_t at(int64_t r, int64_t c) const {
    return cells_[static_cast<size_t>(r * w_ + c)];
  }

  /// \brief Adds `sign` to the rectangle (accumulates union/subtraction).
  void AccumulateRect(int64_t r0, int64_t c0, int64_t r1, int64_t c1,
                      int8_t sign);

  void Accumulate(const SignedMask& other);

  /// \brief True iff the accumulated signs reduce exactly to the binary
  /// region mask (Eq. 5: sum over scales of As == A^R).
  bool EqualsRegion(const GridMask& region) const;

  std::string ToString() const;

 private:
  int64_t h_ = 0, w_ = 0;
  std::vector<int8_t> cells_;
};

}  // namespace one4all

#endif  // ONE4ALL_GRID_MASK_H_
