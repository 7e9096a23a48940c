#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define O4A_CONV_X86 1
#endif

namespace one4all {

namespace {

// Below this many elements a row-parallel fan-out costs more than it
// saves; softmax and friends stay on the calling thread.
constexpr int64_t kParallelRowThreshold = 1 << 14;

void CheckMatMul2d(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
}

// Sums grad_output[s] rows into grad_bias (one value per filter).
void AccumulateBias(const float* go, int64_t f, int64_t plane,
                    Tensor* grad_bias) {
  for (int64_t fi = 0; fi < f; ++fi) {
    const float* row = go + fi * plane;
    double acc = 0.0;
    for (int64_t i = 0; i < plane; ++i) acc += row[i];
    (*grad_bias)[fi] += static_cast<float>(acc);
  }
}

// ---- Direct convolution ---------------------------------------------------
//
// Conv2dForward computes each output row in register tiles of kTileF
// filters x up to kTileV vectors of 8 output columns straight from the
// input rows, in the im2col term order (input channel, kernel row, kernel
// column) and with Sgemm's rounding (SgemmRoundingFor), so its bytes equal
// Im2Col + Sgemm's. Each input row is laid out once as a zero-padded row
// split by column phase mod the stride: every term of a tile is then one
// contiguous read, whatever the stride or padding, and padding reads
// zeros exactly as im2col does. Only the kernel-height window of rows an
// output row reads is kept, in a ring.

constexpr int64_t kTileF = 4;
constexpr int64_t kTileV = 2;
constexpr int64_t kTileW = 8 * kTileV;

// acc[r][j] = sum over terms p in [p0, p1) of w[p][r] * x[offs[p] + j] for
// j < 8 * nv, combined into out[r * ldo + j] as Sgemm combines k-blocks:
// stored, or added to out when `accumulate`; then bias[r] is added when
// `bias` is non-null. `w` is the filter tile's weights, kTileF per term.
using ConvTileFn = void (*)(int64_t nv, const float* w, const float* x,
                            const int64_t* offs, int64_t p0, int64_t p1,
                            float* out, int64_t ldo, bool accumulate,
                            const float* bias);

// A rounded product, then a rounded sum per term: the portable kernel.
void ConvTileGeneric(int64_t nv, const float* w, const float* x,
                     const int64_t* offs, int64_t p0, int64_t p1,
                     float* out, int64_t ldo, bool accumulate,
                     const float* bias) {
  const int64_t cols = 8 * nv;
  float acc[kTileF][kTileW] = {};
  for (int64_t p = p0; p < p1; ++p) {
    const float* xp = x + offs[p];
    const float* wp = w + p * kTileF;
    for (int64_t r = 0; r < kTileF; ++r) {
      const float wv = wp[r];
      for (int64_t j = 0; j < cols; ++j) acc[r][j] += wv * xp[j];
    }
  }
  for (int64_t r = 0; r < kTileF; ++r) {
    float* orow = out + r * ldo;
    for (int64_t j = 0; j < cols; ++j) {
      float v = acc[r][j];
      if (accumulate) v = orow[j] + v;
      if (bias != nullptr) v += bias[r];
      orow[j] = v;
    }
  }
}

#ifdef O4A_CONV_X86
template <int kNv>
__attribute__((target("avx2,fma"))) inline void StoreConvRow(
    float* orow, bool accumulate, const float* bias, __m256 a0,
    __m256 a1) {
  const __m256 sums[2] = {a0, a1};
  for (int v = 0; v < kNv; ++v) {
    __m256 sum = sums[v];
    if (accumulate) sum = _mm256_add_ps(_mm256_loadu_ps(orow + 8 * v), sum);
    if (bias != nullptr) sum = _mm256_add_ps(sum, _mm256_set1_ps(*bias));
    _mm256_storeu_ps(orow + 8 * v, sum);
  }
}

// One fused multiply-add per term: Sgemm's AVX2 micro-kernel arithmetic.
// The eight accumulators are named, not an array: GCC keeps an array of
// __m256 on the stack and reloads it every term.
template <int kNv>
__attribute__((target("avx2,fma"))) void ConvTileAvx2(
    const float* w, const float* x, const int64_t* offs, int64_t p0,
    int64_t p1, float* out, int64_t ldo, bool accumulate,
    const float* bias) {
  static_assert(kNv >= 1 && kNv <= kTileV, "tile width");
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  for (int64_t p = p0; p < p1; ++p) {
    const float* xp = x + offs[p];
    const float* wp = w + p * kTileF;
    const __m256 x0 = _mm256_loadu_ps(xp);
    const __m256 x1 = kNv > 1 ? _mm256_loadu_ps(xp + 8) : x0;
    __m256 wv;
    wv = _mm256_broadcast_ss(wp + 0);
    c00 = _mm256_fmadd_ps(wv, x0, c00);
    if (kNv > 1) c01 = _mm256_fmadd_ps(wv, x1, c01);
    wv = _mm256_broadcast_ss(wp + 1);
    c10 = _mm256_fmadd_ps(wv, x0, c10);
    if (kNv > 1) c11 = _mm256_fmadd_ps(wv, x1, c11);
    wv = _mm256_broadcast_ss(wp + 2);
    c20 = _mm256_fmadd_ps(wv, x0, c20);
    if (kNv > 1) c21 = _mm256_fmadd_ps(wv, x1, c21);
    wv = _mm256_broadcast_ss(wp + 3);
    c30 = _mm256_fmadd_ps(wv, x0, c30);
    if (kNv > 1) c31 = _mm256_fmadd_ps(wv, x1, c31);
  }
  const bool has_bias = bias != nullptr;
  StoreConvRow<kNv>(out, accumulate, bias, c00, c01);
  StoreConvRow<kNv>(out + ldo, accumulate, has_bias ? bias + 1 : nullptr,
                    c10, c11);
  StoreConvRow<kNv>(out + 2 * ldo, accumulate,
                    has_bias ? bias + 2 : nullptr, c20, c21);
  StoreConvRow<kNv>(out + 3 * ldo, accumulate,
                    has_bias ? bias + 3 : nullptr, c30, c31);
}

void ConvTileFma(int64_t nv, const float* w, const float* x,
                 const int64_t* offs, int64_t p0, int64_t p1, float* out,
                 int64_t ldo, bool accumulate, const float* bias) {
  if (nv == 1) {
    return ConvTileAvx2<1>(w, x, offs, p0, p1, out, ldo, accumulate, bias);
  }
  ConvTileAvx2<2>(w, x, offs, p0, p1, out, ldo, accumulate, bias);
}
#endif  // O4A_CONV_X86

ConvTileFn SelectConvTile(bool fused) {
#ifdef O4A_CONV_X86
  if (fused) return ConvTileFma;
#endif
  O4A_CHECK(!fused) << "fused Sgemm rounding without an FMA conv tile";
  return ConvTileGeneric;
}

int64_t CeilDivNonNegative(int64_t num, int64_t den) {
  return num <= 0 ? 0 : (num + den - 1) / den;
}

// Lays out one input row zero-padded and split by column phase: for
// ph < stride, dst[ph * len + i] is padded column i * stride + ph, that
// is input column i * stride + ph - padding, or zero outside the row.
void PadRowByPhase(const float* row, int64_t w, const Conv2dSpec& spec,
                   int64_t len, float* dst) {
  const int64_t s = spec.stride;
  for (int64_t ph = 0; ph < s; ++ph, dst += len) {
    const int64_t lo =
        std::min(len, CeilDivNonNegative(spec.padding - ph, s));
    const int64_t hi = std::max(
        lo, std::min(len, CeilDivNonNegative(w + spec.padding - ph, s)));
    std::fill(dst, dst + lo, 0.0f);
    const float* src = row + lo * s + ph - spec.padding;
    if (s == 1) {
      std::copy(src, src + (hi - lo), dst + lo);
    } else {
      for (int64_t i = lo; i < hi; ++i) dst[i] = src[(i - lo) * s];
    }
    std::fill(dst + hi, dst + len, 0.0f);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  Sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        c.data(), n);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  Sgemm(true, false, m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f,
        c.data(), n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  O4A_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  Sgemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
        c.data(), n);
  return c;
}

Tensor Transpose2D(const Tensor& a) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void Im2ColInto(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, float* out) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  O4A_CHECK_GT(oh, 0);
  O4A_CHECK_GT(ow, 0);
  const int64_t plane = h * w;
  const float* base = input.data() + sample * c * plane;
  int64_t row = 0;
  for (int64_t ci = 0; ci < c; ++ci) {
    const float* chan = base + ci * plane;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj, ++row) {
        float* out_row = out + row * (oh * ow);
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) {
            std::fill(out_row + oi * ow, out_row + (oi + 1) * ow, 0.0f);
            continue;
          }
          const float* in_row = chan + ii * w;
          const int64_t jj0 = kj - spec.padding;
          if (spec.stride == 1 && jj0 >= 0 && jj0 + ow <= w) {
            // Fully interior stride-1 row: one contiguous copy.
            std::copy(in_row + jj0, in_row + jj0 + ow, out_row + oi * ow);
            continue;
          }
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + jj0;
            out_row[oi * ow + oj] = (jj >= 0 && jj < w) ? in_row[jj] : 0.0f;
          }
        }
      }
    }
  }
}

Tensor Im2Col(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
              const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  O4A_CHECK_GT(oh, 0);
  O4A_CHECK_GT(ow, 0);
  Tensor cols({c * kh * kw, oh * ow});
  Im2ColInto(input, sample, kh, kw, spec, cols.data());
  return cols;
}

void Col2Im(const Tensor& cols, int64_t kh, int64_t kw,
            const Conv2dSpec& spec, Tensor* grad_input, int64_t sample) {
  O4A_CHECK(grad_input != nullptr);
  O4A_CHECK_EQ(grad_input->ndim(), 4u);
  O4A_CHECK_EQ(cols.dim(0), grad_input->dim(1) * kh * kw);
  O4A_CHECK_EQ(cols.dim(1), spec.OutExtent(grad_input->dim(2), kh) *
                                spec.OutExtent(grad_input->dim(3), kw));
  Col2ImFrom(cols.data(), kh, kw, spec, grad_input, sample);
}

void Col2ImFrom(const float* cols, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, Tensor* grad_input, int64_t sample) {
  O4A_CHECK(grad_input != nullptr);
  O4A_CHECK_EQ(grad_input->ndim(), 4u);
  const int64_t c = grad_input->dim(1), h = grad_input->dim(2),
                w = grad_input->dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  const float* pc = cols;
  const int64_t plane = h * w;
  float* base = grad_input->data() + sample * c * plane;
  int64_t row = 0;
  for (int64_t ci = 0; ci < c; ++ci) {
    float* chan = base + ci * plane;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj, ++row) {
        const float* in_row = pc + row * (oh * ow);
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) continue;
          const int64_t jj0 = kj - spec.padding;
          if (spec.stride == 1 && jj0 >= 0 && jj0 + ow <= w) {
            float* dst = chan + ii * w + jj0;
            const float* src = in_row + oi * ow;
            for (int64_t oj = 0; oj < ow; ++oj) dst[oj] += src[oj];
            continue;
          }
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + jj0;
            if (jj < 0 || jj >= w) continue;
            chan[ii * w + jj] += in_row[oi * ow + oj];
          }
        }
      }
    }
  }
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_EQ(weight.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  O4A_CHECK_EQ(weight.dim(1), c);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  O4A_CHECK_GT(oh, 0);
  O4A_CHECK_GT(ow, 0);
  const bool has_bias = !bias.empty();
  if (has_bias) O4A_CHECK_EQ(bias.numel(), f);

  // Every output element is written below (the first k block stores).
  Tensor out = Tensor::Uninitialized({n, f, oh, ow});
  const int64_t patch = c * kh * kw;  // terms per output, im2col order
  const int64_t plane = oh * ow;
  const SgemmRounding rounding = SgemmRoundingFor(f, plane, patch);
  const ConvTileFn tile = SelectConvTile(rounding.fused);
  const int64_t s = spec.stride;
  // A padded row's phase holds every column a tile of 8-column vectors
  // reads: output columns rounded up to 8, plus the kernel's reach.
  const int64_t len = (ow + 7) / 8 * 8 + (kw - 1) / s;
  const int64_t row_floats = s * len;

  // Weights packed per filter tile as [patch][kTileF], zero rows past f.
  Workspace* ws = Workspace::ThreadLocal();
  const Workspace::Mark mark = ws->SaveMark();
  const int64_t f_tiles = (f + kTileF - 1) / kTileF;
  float* wpack = ws->Alloc(static_cast<size_t>(f_tiles * patch * kTileF));
  for (int64_t ft = 0; ft < f_tiles; ++ft) {
    for (int64_t p = 0; p < patch; ++p) {
      for (int64_t r = 0; r < kTileF; ++r) {
        const int64_t fi = ft * kTileF + r;
        wpack[(ft * patch + p) * kTileF + r] =
            fi < f ? weight.data()[fi * patch + p] : 0.0f;
      }
    }
  }

  auto run_samples = [&](int64_t begin, int64_t end) {
    Workspace* local = Workspace::ThreadLocal();
    const Workspace::Mark local_mark = local->SaveMark();
    // Ring slot (ci, ii mod kh) holds channel ci's padded input row ii;
    // slot c * kh is the all-zero row above and below the input.
    float* ring = local->Alloc(static_cast<size_t>((c * kh + 1) * row_floats));
    std::fill(ring + c * kh * row_floats, ring + (c * kh + 1) * row_floats,
              0.0f);
    // Term p of the current output row reads ring + offs[p] + column:
    // its row's ring slot, then its kernel column's phase and shift.
    std::vector<int64_t> offs(static_cast<size_t>(patch));
    std::vector<int64_t> col_offs(static_cast<size_t>(kw));
    for (int64_t kj = 0; kj < kw; ++kj) {
      col_offs[static_cast<size_t>(kj)] = kj % s * len + kj / s;
    }
    float edge[kTileF * kTileW];  // ragged tiles land here first
    for (int64_t sample = begin; sample < end; ++sample) {
      const float* in = input.data() + sample * c * h * w;
      int64_t next_row = 0;  // first input row not yet in the ring
      for (int64_t oi = 0; oi < oh; ++oi) {
        const int64_t top = oi * s - spec.padding;
        for (int64_t ii = std::max(next_row, top);
             ii < std::min(h, top + kh); ++ii) {
          for (int64_t ci = 0; ci < c; ++ci) {
            PadRowByPhase(in + (ci * h + ii) * w, w, spec, len,
                          ring + (ci * kh + ii % kh) * row_floats);
          }
        }
        next_row = std::max(next_row, top + kh);
        for (int64_t ki = 0; ki < kh; ++ki) {
          const int64_t ii = top + ki;
          const bool inside = ii >= 0 && ii < h;
          for (int64_t ci = 0; ci < c; ++ci) {
            const int64_t slot = inside ? ci * kh + ii % kh : c * kh;
            int64_t* terms = offs.data() + (ci * kh + ki) * kw;
            for (int64_t kj = 0; kj < kw; ++kj) {
              terms[kj] = slot * row_floats + col_offs[static_cast<size_t>(kj)];
            }
          }
        }

        for (int64_t ft = 0; ft < f_tiles; ++ft) {
          const int64_t f0 = ft * kTileF;
          const int64_t rows = std::min(kTileF, f - f0);
          const float* wt = wpack + ft * patch * kTileF;
          for (int64_t oj0 = 0; oj0 < ow; oj0 += kTileW) {
            const int64_t cols = std::min(kTileW, ow - oj0);
            const int64_t nv = (cols + 7) / 8;
            float* dst = out.data() + (sample * f + f0) * plane + oi * ow + oj0;
            const bool whole = rows == kTileF && cols == 8 * nv;
            for (int64_t p0 = 0; p0 < patch; p0 += rounding.k_block) {
              const int64_t p1 = std::min(patch, p0 + rounding.k_block);
              const float* tile_bias =
                  has_bias && p1 == patch ? bias.data() + f0 : nullptr;
              if (whole) {
                tile(nv, wt, ring + oj0, offs.data(), p0, p1, dst, plane,
                     p0 > 0, tile_bias);
                continue;
              }
              tile(nv, wt, ring + oj0, offs.data(), p0, p1, edge, kTileW,
                   false, nullptr);
              for (int64_t r = 0; r < rows; ++r) {
                float* orow = dst + r * plane;
                for (int64_t j = 0; j < cols; ++j) {
                  float v = edge[r * kTileW + j];
                  if (p0 > 0) v = orow[j] + v;
                  if (tile_bias != nullptr) v += tile_bias[r];
                  orow[j] = v;
                }
              }
            }
          }
        }
      }
    }
    local->RestoreMark(local_mark);
  };

  ThreadPool* pool = GetComputePool();
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    // Batch-parallel: each worker keeps its row ring in its own arena.
    pool->ParallelFor(n, run_samples);
  } else {
    run_samples(0, n);
  }
  ws->RestoreMark(mark);
  return out;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const int64_t n = input.dim(0), c = input.dim(1);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), f);
  // Workspace spans below are sized from oh*ow, so a grad_output whose
  // extents disagree with the spec must fail loudly here rather than
  // write out of bounds.
  O4A_CHECK_EQ(oh, spec.OutExtent(input.dim(2), kh));
  O4A_CHECK_EQ(ow, spec.OutExtent(input.dim(3), kw));

  if (grad_input) *grad_input = Tensor(input.shape());
  if (grad_weight) *grad_weight = Tensor(weight.shape());
  if (grad_bias) *grad_bias = Tensor({f});

  const int64_t patch = c * kh * kw;
  const int64_t plane = oh * ow;
  const float* wmat = weight.data();  // [F, patch]

  // Processes samples [begin, end), accumulating the shared-weight
  // gradients into `dw` / `db` (chunk-private when parallel).
  auto run_samples = [&](int64_t begin, int64_t end, Tensor* dw,
                         Tensor* db) {
    Workspace* ws = Workspace::ThreadLocal();
    const Workspace::Mark mark = ws->SaveMark();
    float* cols = dw != nullptr
                      ? ws->Alloc(static_cast<size_t>(patch * plane))
                      : nullptr;
    float* dcols = grad_input != nullptr
                       ? ws->Alloc(static_cast<size_t>(patch * plane))
                       : nullptr;
    for (int64_t s = begin; s < end; ++s) {
      // This sample's output gradient viewed as [f, oh*ow].
      const float* go = grad_output.data() + s * f * plane;
      if (dw != nullptr) {
        Im2ColInto(input, s, kh, kw, spec, cols);
        // dW += go x cols^T  -> [f, patch]
        Sgemm(false, true, f, patch, plane, 1.0f, go, plane, cols, plane,
              1.0f, dw->data(), patch);
      }
      if (grad_input != nullptr) {
        // dCols = W^T x go -> [patch, oh*ow]; per-sample slices of
        // grad_input are disjoint, so this is race-free under fan-out.
        Sgemm(true, false, patch, plane, f, 1.0f, wmat, patch, go, plane,
              0.0f, dcols, plane);
        Col2ImFrom(dcols, kh, kw, spec, grad_input, s);
      }
      if (db != nullptr) AccumulateBias(go, f, plane, db);
    }
    ws->RestoreMark(mark);
  };

  ThreadPool* pool = GetComputePool();
  const int64_t num_chunks =
      (pool != nullptr && pool->num_threads() > 1 && n > 1)
          ? std::min<int64_t>(n, pool->num_threads())
          : 1;
  if (num_chunks == 1) {
    run_samples(0, n, grad_weight, grad_bias);
    return;
  }

  // Chunk-private partials for the shared-weight gradients, reduced in
  // chunk order afterwards so the result does not depend on scheduling.
  std::vector<Tensor> dw_parts, db_parts;
  if (grad_weight) {
    dw_parts.assign(static_cast<size_t>(num_chunks), Tensor(weight.shape()));
  }
  if (grad_bias) {
    db_parts.assign(static_cast<size_t>(num_chunks), Tensor({f}));
  }
  pool->ParallelFor(num_chunks, [&](int64_t chunk_begin, int64_t chunk_end) {
    for (int64_t ci = chunk_begin; ci < chunk_end; ++ci) {
      const int64_t begin = ci * n / num_chunks;
      const int64_t end = (ci + 1) * n / num_chunks;
      run_samples(begin, end,
                  grad_weight ? &dw_parts[static_cast<size_t>(ci)] : nullptr,
                  grad_bias ? &db_parts[static_cast<size_t>(ci)] : nullptr);
    }
  });
  for (int64_t ci = 0; ci < num_chunks; ++ci) {
    if (grad_weight) {
      grad_weight->AddInPlace(dw_parts[static_cast<size_t>(ci)]);
    }
    if (grad_bias) grad_bias->AddInPlace(db_parts[static_cast<size_t>(ci)]);
  }
}

namespace {

// Means of kLanes consecutive planes of `plane` floats from `base`. Each
// plane keeps its own serial double chain in index order; the lanes only
// advance side by side, so the chains overlap in the pipeline instead of
// running back to back, and every mean keeps its bits.
template <int kLanes>
void MeanPlanes(const float* base, int64_t plane, float inv, float* out) {
  double acc[kLanes] = {};
  for (int64_t i = 0; i < plane; ++i) {
    for (int l = 0; l < kLanes; ++l) acc[l] += base[l * plane + i];
  }
  for (int l = 0; l < kLanes; ++l) out[l] = static_cast<float>(acc[l]) * inv;
}

}  // namespace

Tensor GlobalAvgPoolForward(const Tensor& input) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t plane = h * w;
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor out({n, c, 1, 1});
  // Planes in groups of 8, then 4, 2 and 1 for the ragged tail.
  const int64_t planes = n * c;
  int64_t p = 0;
  for (; p + 8 <= planes; p += 8) {
    MeanPlanes<8>(input.data() + p * plane, plane, inv, out.data() + p);
  }
  if (p + 4 <= planes) {
    MeanPlanes<4>(input.data() + p * plane, plane, inv, out.data() + p);
    p += 4;
  }
  if (p + 2 <= planes) {
    MeanPlanes<2>(input.data() + p * plane, plane, inv, out.data() + p);
    p += 2;
  }
  if (p < planes) {
    MeanPlanes<1>(input.data() + p * plane, plane, inv, out.data() + p);
  }
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& input, const Tensor& grad_output) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), c);
  Tensor gi(input.shape());
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_output.at(s, ci, 0, 0) * inv;
      float* plane = gi.data() + (s * c + ci) * h * w;
      for (int64_t i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return gi;
}

Tensor UpsampleNearestForward(const Tensor& input, int64_t factor) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_GE(factor, 1);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t ow = w * factor;
  Tensor out = Tensor::Uninitialized({n, c, h * factor, ow});
  const float* src = input.data();
  float* dst = out.data();
  // One source row widens into one output row, which repeats factor times.
  for (int64_t row = 0; row < n * c * h; ++row, src += w) {
    for (int64_t j = 0; j < w; ++j) {
      std::fill(dst + j * factor, dst + (j + 1) * factor, src[j]);
    }
    for (int64_t rep = 1; rep < factor; ++rep) {
      std::copy(dst, dst + ow, dst + rep * ow);
    }
    dst += factor * ow;
  }
  return out;
}

Tensor UpsampleNearestBackward(const Tensor& grad_output, int64_t factor) {
  O4A_CHECK_EQ(grad_output.ndim(), 4u);
  const int64_t n = grad_output.dim(0), c = grad_output.dim(1),
                oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(oh % factor, 0);
  O4A_CHECK_EQ(ow % factor, 0);
  Tensor gi({n, c, oh / factor, ow / factor});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          gi.at(s, ci, i / factor, j / factor) +=
              grad_output.at(s, ci, i, j);
        }
      }
    }
  }
  return gi;
}

Tensor ConcatChannels(const std::vector<const Tensor*>& inputs) {
  O4A_CHECK(!inputs.empty());
  const Tensor& first = *inputs[0];
  O4A_CHECK_EQ(first.ndim(), 4u);
  const int64_t n = first.dim(0), h = first.dim(2), w = first.dim(3);
  int64_t total_c = 0;
  for (const Tensor* t : inputs) {
    O4A_CHECK_EQ(t->ndim(), 4u);
    O4A_CHECK_EQ(t->dim(0), n);
    O4A_CHECK_EQ(t->dim(2), h);
    O4A_CHECK_EQ(t->dim(3), w);
    total_c += t->dim(1);
  }
  Tensor out = Tensor::Uninitialized({n, total_c, h, w});
  const int64_t plane = h * w;
  for (int64_t s = 0; s < n; ++s) {
    int64_t coff = 0;
    for (const Tensor* t : inputs) {
      const int64_t c = t->dim(1);
      const float* src = t->data() + s * c * plane;
      float* dst = out.data() + (s * total_c + coff) * plane;
      std::copy(src, src + c * plane, dst);
      coff += c;
    }
  }
  return out;
}

std::vector<Tensor> SplitChannels(const Tensor& grad_output,
                                  const std::vector<int64_t>& channel_counts) {
  O4A_CHECK_EQ(grad_output.ndim(), 4u);
  const int64_t n = grad_output.dim(0), total_c = grad_output.dim(1),
                h = grad_output.dim(2), w = grad_output.dim(3);
  int64_t sum_c = 0;
  for (int64_t c : channel_counts) sum_c += c;
  O4A_CHECK_EQ(sum_c, total_c);
  const int64_t plane = h * w;
  std::vector<Tensor> grads;
  grads.reserve(channel_counts.size());
  for (int64_t c : channel_counts) grads.emplace_back(Tensor({n, c, h, w}));
  for (int64_t s = 0; s < n; ++s) {
    int64_t coff = 0;
    for (size_t gi = 0; gi < channel_counts.size(); ++gi) {
      const int64_t c = channel_counts[gi];
      const float* src = grad_output.data() + (s * total_c + coff) * plane;
      float* dst = grads[gi].data() + s * c * plane;
      std::copy(src, src + c * plane, dst);
      coff += c;
    }
  }
  return grads;
}

Tensor SoftmaxRows(const Tensor& logits) {
  O4A_CHECK_EQ(logits.ndim(), 2u);
  const int64_t m = logits.dim(0), n = logits.dim(1);
  Tensor out({m, n});
  auto run_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float* row = logits.data() + i * n;
      float* orow = out.data() + i * n;
      float mx = row[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < n; ++j) orow[j] *= inv;
    }
  };
  ThreadPool* pool = GetComputePool();
  if (pool != nullptr && pool->num_threads() > 1 &&
      m * n >= kParallelRowThreshold) {
    pool->ParallelFor(m, run_rows);
  } else {
    run_rows(0, m);
  }
  return out;
}

Tensor SoftmaxRowsBackward(const Tensor& softmax_out,
                           const Tensor& grad_output) {
  CheckSameShape(softmax_out, grad_output, "SoftmaxRowsBackward");
  const int64_t m = softmax_out.dim(0), n = softmax_out.dim(1);
  Tensor gi({m, n});
  auto run_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float* s = softmax_out.data() + i * n;
      const float* g = grad_output.data() + i * n;
      double dot = 0.0;
      for (int64_t j = 0; j < n; ++j) dot += static_cast<double>(s[j]) * g[j];
      float* o = gi.data() + i * n;
      for (int64_t j = 0; j < n; ++j) {
        o[j] = s[j] * (g[j] - static_cast<float>(dot));
      }
    }
  };
  ThreadPool* pool = GetComputePool();
  if (pool != nullptr && pool->num_threads() > 1 &&
      m * n >= kParallelRowThreshold) {
    pool->ParallelFor(m, run_rows);
  } else {
    run_rows(0, m);
  }
  return gi;
}

// ---- Scalar reference implementations ----------------------------------

namespace naive {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order: streams through B and C rows for cache friendliness.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  O4A_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_EQ(weight.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  O4A_CHECK_EQ(weight.dim(1), c);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  const bool has_bias = !bias.empty();
  if (has_bias) O4A_CHECK_EQ(bias.numel(), f);

  Tensor out({n, f, oh, ow});
  const Tensor wmat = weight.Reshape({f, c * kh * kw});
  for (int64_t s = 0; s < n; ++s) {
    const Tensor cols = Im2Col(input, s, kh, kw, spec);
    Tensor prod = naive::MatMul(wmat, cols);  // [f, oh*ow]
    float* dst = out.data() + s * f * oh * ow;
    const float* src = prod.data();
    std::copy(src, src + f * oh * ow, dst);
    if (has_bias) {
      for (int64_t fi = 0; fi < f; ++fi) {
        const float bv = bias[fi];
        float* row = dst + fi * oh * ow;
        for (int64_t i = 0; i < oh * ow; ++i) row[i] += bv;
      }
    }
  }
  return out;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const int64_t n = input.dim(0), c = input.dim(1);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), f);

  if (grad_input) *grad_input = Tensor(input.shape());
  if (grad_weight) *grad_weight = Tensor(weight.shape());
  if (grad_bias) *grad_bias = Tensor({f});

  const Tensor wmat = weight.Reshape({f, c * kh * kw});
  for (int64_t s = 0; s < n; ++s) {
    // View of this sample's output gradient as [f, oh*ow].
    Tensor go({f, oh * ow});
    const float* src = grad_output.data() + s * f * oh * ow;
    std::copy(src, src + f * oh * ow, go.data());

    if (grad_weight) {
      const Tensor cols = Im2Col(input, s, kh, kw, spec);
      // dW += go x cols^T  -> [f, c*kh*kw]
      Tensor dw = naive::MatMulTransB(go, cols);
      grad_weight->AddInPlace(dw.Reshape(weight.shape()));
    }
    if (grad_input) {
      // dCols = W^T x go -> [c*kh*kw, oh*ow]
      Tensor dcols = naive::MatMulTransA(wmat, go);
      Col2Im(dcols, kh, kw, spec, grad_input, s);
    }
    if (grad_bias) AccumulateBias(go.data(), f, oh * ow, grad_bias);
  }
}

}  // namespace naive

}  // namespace one4all
