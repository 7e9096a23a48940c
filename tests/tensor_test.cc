// Unit tests for src/tensor: Tensor semantics and numeric kernels checked
// against naive reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace one4all {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FromVectorAndAccessors) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, FourDAccessorRowMajor) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  EXPECT_TRUE(a.Add(b).AllClose(Tensor::FromVector({3}, {5, 7, 9})));
  EXPECT_TRUE(b.Sub(a).AllClose(Tensor::FromVector({3}, {3, 3, 3})));
  EXPECT_TRUE(a.Mul(b).AllClose(Tensor::FromVector({3}, {4, 10, 18})));
  EXPECT_TRUE(b.Div(a).AllClose(Tensor::FromVector({3}, {4, 2.5, 2})));
  EXPECT_TRUE(a.AddScalar(1).AllClose(Tensor::FromVector({3}, {2, 3, 4})));
  EXPECT_TRUE(a.MulScalar(2).AllClose(Tensor::FromVector({3}, {2, 4, 6})));
}

TEST(TensorTest, InPlaceOps) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  a.AddInPlace(Tensor::FromVector({2}, {1, 1}));
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({2}, {2, 3})));
  a.AddScaledInPlace(Tensor::FromVector({2}, {2, 2}), 0.5f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({2}, {3, 4})));
  a.ScaleInPlace(2.0f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({2}, {6, 8})));
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::FromVector({4}, {1, -2, 3, 4});
  EXPECT_FLOAT_EQ(t.Sum(), 6.0f);
  EXPECT_FLOAT_EQ(t.Mean(), 1.5f);
  EXPECT_FLOAT_EQ(t.Min(), -2.0f);
  EXPECT_FLOAT_EQ(t.Max(), 4.0f);
  EXPECT_FLOAT_EQ(t.SquaredNorm(), 1 + 4 + 9 + 16);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, ReluZeroesNonPositives) {
  Variable t(Tensor::FromVector({3}, {-1, 0, 2}));
  Tensor relu = Relu(t).value();
  EXPECT_TRUE(relu.AllClose(Tensor::FromVector({3}, {0, 0, 2})));
}

TEST(TensorTest, RandomUniformBounds) {
  Rng rng(1);
  Tensor t = Tensor::RandomUniform({100}, &rng, -2.0f, 3.0f);
  EXPECT_GE(t.Min(), -2.0f);
  EXPECT_LT(t.Max(), 3.0f);
}

// ---- Kernels ------------------------------------------------------------

TEST(KernelsTest, MatMulMatchesNaive) {
  Rng rng(2);
  Tensor a = Tensor::RandomNormal({5, 7}, &rng);
  Tensor b = Tensor::RandomNormal({7, 4}, &rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < 7; ++k) acc += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4);
    }
  }
}

TEST(KernelsTest, MatMulTransVariantsAgree) {
  Rng rng(3);
  Tensor a = Tensor::RandomNormal({6, 5}, &rng);
  Tensor b = Tensor::RandomNormal({5, 3}, &rng);
  Tensor at = Transpose2D(a);
  Tensor bt = Transpose2D(b);
  Tensor ref = MatMul(a, b);
  EXPECT_TRUE(MatMulTransA(at, b).AllClose(ref, 1e-4f));
  EXPECT_TRUE(MatMulTransB(a, bt).AllClose(ref, 1e-4f));
}

// Naive direct convolution used as a reference for the im2col path.
Tensor NaiveConv(const Tensor& x, const Tensor& w, const Tensor& b,
                 const Conv2dSpec& spec) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(ww, kw);
  Tensor out({n, f, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t oi = 0; oi < oh; ++oi) {
        for (int64_t oj = 0; oj < ow; ++oj) {
          double acc = b.empty() ? 0.0 : b[fi];
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < kh; ++ki) {
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t ii = oi * spec.stride + ki - spec.padding;
                const int64_t jj = oj * spec.stride + kj - spec.padding;
                if (ii < 0 || ii >= h || jj < 0 || jj >= ww) continue;
                acc += x.at(s, ci, ii, jj) * w.at(fi, ci, ki, kj);
              }
            }
          }
          out.at(s, fi, oi, oj) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  int64_t n, c, h, w, f, k, stride, padding;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesNaiveReference) {
  const ConvCase& cs = GetParam();
  Rng rng(11);
  Tensor x = Tensor::RandomNormal({cs.n, cs.c, cs.h, cs.w}, &rng);
  Tensor w = Tensor::RandomNormal({cs.f, cs.c, cs.k, cs.k}, &rng);
  Tensor b = Tensor::RandomNormal({cs.f}, &rng);
  Conv2dSpec spec{cs.stride, cs.padding};
  EXPECT_TRUE(
      Conv2dForward(x, w, b, spec).AllClose(NaiveConv(x, w, b, spec), 1e-3f));
  // No-bias variant.
  EXPECT_TRUE(Conv2dForward(x, w, Tensor(), spec)
                  .AllClose(NaiveConv(x, w, Tensor(), spec), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{2, 2, 8, 8, 3, 2, 2, 0},
                      ConvCase{1, 4, 9, 7, 2, 3, 3, 0},
                      ConvCase{3, 1, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 2, 10, 10, 2, 5, 1, 2}));

TEST(KernelsTest, GlobalAvgPool) {
  Tensor x = Tensor::FromVector({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor pooled = GlobalAvgPoolForward(x);
  EXPECT_FLOAT_EQ(pooled.at(0, 0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(pooled.at(0, 1, 0, 0), 25.0f);
}

// The channel-interleaved pool keeps each channel's own serial double
// chain, so it must match the one-channel-at-a-time loop bit for bit.
TEST(KernelsTest, GlobalAvgPoolMatchesScalarChainsBitwise) {
  for (int64_t n : {1, 2}) {
    for (int64_t c : {1, 3, 8, 13}) {
      for (auto [h, w] : {std::pair<int64_t, int64_t>{1, 1}, {3, 5},
                          {7, 9}, {17, 13}}) {
        Rng rng(static_cast<uint64_t>(100 * n + 10 * c + h));
        const Tensor x = Tensor::RandomNormal({n, c, h, w}, &rng, 3.0f, 5.0f);
        const Tensor pooled = GlobalAvgPoolForward(x);
        ASSERT_EQ(pooled.shape(), (std::vector<int64_t>{n, c, 1, 1}));
        const float inv = 1.0f / static_cast<float>(h * w);
        for (int64_t p = 0; p < n * c; ++p) {
          double acc = 0.0;
          for (int64_t i = 0; i < h * w; ++i) acc += x[p * h * w + i];
          const float want = static_cast<float>(acc) * inv;
          EXPECT_EQ(std::memcmp(pooled.data() + p, &want, sizeof(float)), 0)
              << "n=" << n << " c=" << c << " " << h << "x" << w
              << " plane " << p;
        }
      }
    }
  }
}

TEST(BufferPoolTest, RecyclesOnlyWhatItLent) {
  BufferPool pool;
  Tensor a = pool.Take({4, 8});
  EXPECT_EQ(a.numel(), 32);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], 0.0f);  // fresh
  a.Fill(7.0f);
  const float* storage = a.data();
  pool.Recycle(&a);
  EXPECT_EQ(pool.free_floats(), 32u);
  // Equal size, any shape: the same buffer, stale values and all.
  Tensor b = pool.Take({32});
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b[0], 7.0f);
  EXPECT_EQ(pool.free_floats(), 0u);
  // A different size gets fresh storage.
  Tensor c = pool.Take({5});
  EXPECT_NE(c.data(), storage);
  // A buffer the pool never lent stays with its tensor.
  Tensor foreign({32});
  pool.Recycle(&foreign);
  EXPECT_EQ(foreign.numel(), 32);
  EXPECT_EQ(pool.free_floats(), 0u);
}

TEST(TensorTest, UninitializedIsZeroOutsideAPool) {
  ASSERT_EQ(internal::ThreadBufferPool(), nullptr);
  const Tensor t = Tensor::Uninitialized({3, 3});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(KernelsTest, UpsampleNearestRoundTripSum) {
  Rng rng(4);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 4}, &rng);
  Tensor up = UpsampleNearestForward(x, 2);
  EXPECT_EQ(up.dim(2), 8);
  EXPECT_EQ(up.dim(3), 8);
  // Each input cell appears factor^2 times.
  EXPECT_NEAR(up.Sum(), x.Sum() * 4.0f, 1e-2);
  // Backward sums each block back.
  Tensor back = UpsampleNearestBackward(up, 2);
  EXPECT_TRUE(back.AllClose(x.MulScalar(4.0f), 1e-4f));
}

TEST(KernelsTest, ConcatSplitChannelsRoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal({2, 2, 3, 3}, &rng);
  Tensor b = Tensor::RandomNormal({2, 5, 3, 3}, &rng);
  Tensor cat = ConcatChannels({&a, &b});
  EXPECT_EQ(cat.dim(1), 7);
  auto parts = SplitChannels(cat, {2, 5});
  EXPECT_TRUE(parts[0].AllClose(a));
  EXPECT_TRUE(parts[1].AllClose(b));
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Rng rng(6);
  Tensor logits = Tensor::RandomNormal({4, 9}, &rng, 0.0f, 3.0f);
  Tensor sm = SoftmaxRows(logits);
  for (int64_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_GT(sm.at(i, j), 0.0f);
      row += sm.at(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(KernelsTest, SoftmaxStableUnderLargeLogits) {
  Tensor logits = Tensor::FromVector({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor sm = SoftmaxRows(logits);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(sm.at(0, j), 1.0 / 3.0, 1e-5);
  }
}

TEST(KernelsTest, Im2ColCol2ImAdjoint) {
  // <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property that
  // makes the conv backward correct.
  Rng rng(7);
  Tensor x = Tensor::RandomNormal({1, 2, 5, 5}, &rng);
  Conv2dSpec spec{1, 1};
  Tensor cols = Im2Col(x, 0, 3, 3, spec);
  Tensor y = Tensor::RandomNormal(cols.shape(), &rng);
  Tensor back({1, 2, 5, 5});
  Col2Im(y, 3, 3, spec, &back, 0);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

}  // namespace
}  // namespace one4all
