// Parity tests pinning the blocked/vectorized kernel subsystem
// (tensor/gemm.h routing in tensor/kernels.cc) to the scalar reference
// implementations in namespace naive, plus Workspace arena semantics and
// threaded-execution parity under a ScopedComputePool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace one4all {
namespace {

// Elementwise |a-b| <= atol + rtol*|b|; the plain atol of AllClose is too
// brittle for size-1024 reductions whose naive/blocked summation orders
// differ.
void ExpectAllCloseRel(const Tensor& a, const Tensor& b, float atol,
                       float rtol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], atol + rtol * std::fabs(b[i]))
        << "element " << i;
  }
}

struct MatMulCase {
  int64_t m, k, n;
};

class MatMulParityTest : public ::testing::TestWithParam<MatMulCase> {};

TEST_P(MatMulParityTest, AllVariantsMatchNaive) {
  const MatMulCase& cs = GetParam();
  Rng rng(1234 + cs.m + cs.k * 7 + cs.n * 13);
  Tensor a = Tensor::RandomNormal({cs.m, cs.k}, &rng);
  Tensor b = Tensor::RandomNormal({cs.k, cs.n}, &rng);
  ExpectAllCloseRel(MatMul(a, b), naive::MatMul(a, b), 1e-4f, 1e-4f);

  Tensor at = Transpose2D(a);  // [k, m]
  ExpectAllCloseRel(MatMulTransA(at, b), naive::MatMulTransA(at, b), 1e-4f,
                    1e-4f);
  Tensor bt = Transpose2D(b);  // [n, k]
  ExpectAllCloseRel(MatMulTransB(a, bt), naive::MatMulTransB(a, bt), 1e-4f,
                    1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulParityTest,
    ::testing::Values(MatMulCase{1, 1, 1},       // scalar product
                      MatMulCase{1, 257, 1},     // k crosses a KC block
                      MatMulCase{7, 1, 9},       // k = 1 outer product
                      MatMulCase{5, 3, 2},       // tiny non-square
                      MatMulCase{6, 16, 16},     // exactly one micro-tile
                      MatMulCase{13, 31, 47},    // ragged micro-tiles
                      MatMulCase{127, 129, 65},  // straddles MC and KC
                      MatMulCase{128, 300, 17},  // several KC blocks
                      MatMulCase{121, 120, 121}));

TEST(SgemmTest, AlphaBetaAndAccumulate) {
  Rng rng(7);
  const int64_t m = 33, k = 65, n = 29;
  Tensor a = Tensor::RandomNormal({m, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, n}, &rng);
  Tensor c0 = Tensor::RandomNormal({m, n}, &rng);

  // C = 0.5*A*B + 2*C against the composed reference.
  Tensor c = c0;
  Sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f,
        c.data(), n);
  Tensor want = naive::MatMul(a, b).MulScalar(0.5f).Add(c0.MulScalar(2.0f));
  ExpectAllCloseRel(c, want, 1e-4f, 1e-4f);

  // alpha = 0 must only scale C, never read A/B products.
  Tensor c2 = c0;
  Sgemm(false, false, m, n, k, 0.0f, a.data(), k, b.data(), n, 3.0f,
        c2.data(), n);
  ExpectAllCloseRel(c2, c0.MulScalar(3.0f), 1e-5f, 0.0f);
}

TEST(SgemmTest, RespectsLeadingDimensions) {
  // Multiply a sub-block of a wider matrix: lda/ldb/ldc larger than the
  // logical extents.
  Rng rng(8);
  const int64_t m = 21, k = 34, n = 18;
  const int64_t lda = 40, ldb = 25, ldc = 30;
  std::vector<float> a(static_cast<size_t>(m * lda)),
      b(static_cast<size_t>(k * ldb)), c(static_cast<size_t>(m * ldc), 0.0f);
  for (float& v : a) v = static_cast<float>(rng.Uniform() - 0.5);
  for (float& v : b) v = static_cast<float>(rng.Uniform() - 0.5);
  Sgemm(false, false, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
        c.data(), ldc);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<size_t>(i * lda + p)]) *
               b[static_cast<size_t>(p * ldb + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * ldc + j)], acc, 1e-3)
          << i << "," << j;
    }
  }
}

struct ConvCase {
  int64_t n, c, h, w, f, k, stride, padding;
  bool bias;
};

class ConvParityTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParityTest, ForwardAndBackwardMatchNaive) {
  const ConvCase& cs = GetParam();
  Rng rng(99 + cs.n + cs.c * 3 + cs.k * 11);
  Tensor x = Tensor::RandomNormal({cs.n, cs.c, cs.h, cs.w}, &rng);
  Tensor w = Tensor::RandomNormal({cs.f, cs.c, cs.k, cs.k}, &rng);
  Tensor b = cs.bias ? Tensor::RandomNormal({cs.f}, &rng) : Tensor();
  Conv2dSpec spec{cs.stride, cs.padding};

  Tensor out = Conv2dForward(x, w, b, spec);
  Tensor want = naive::Conv2dForward(x, w, b, spec);
  ExpectAllCloseRel(out, want, 1e-4f, 1e-4f);

  Rng grng(3);
  Tensor go = Tensor::RandomNormal(out.shape(), &grng);
  Tensor gi, gw, gb, ngi, ngw, ngb;
  Conv2dBackward(x, w, go, spec, &gi, &gw, cs.bias ? &gb : nullptr);
  naive::Conv2dBackward(x, w, go, spec, &ngi, &ngw,
                        cs.bias ? &ngb : nullptr);
  ExpectAllCloseRel(gi, ngi, 1e-4f, 1e-4f);
  ExpectAllCloseRel(gw, ngw, 1e-4f, 1e-4f);
  if (cs.bias) ExpectAllCloseRel(gb, ngb, 1e-4f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParityTest,
    ::testing::Values(
        ConvCase{1, 1, 5, 5, 1, 1, 1, 0, true},    // k=1 pointwise
        ConvCase{2, 3, 9, 7, 4, 1, 1, 0, false},   // k=1, non-square
        ConvCase{2, 3, 8, 8, 4, 3, 1, 1, true},    // the workhorse shape
        ConvCase{1, 2, 11, 5, 3, 3, 2, 1, true},   // stride 2, odd extents
        ConvCase{2, 2, 8, 8, 3, 2, 2, 0, false},   // even kernel, no bias
        ConvCase{1, 4, 9, 7, 2, 3, 3, 0, true},    // stride 3
        ConvCase{1, 2, 6, 6, 2, 5, 1, 2, true},    // kernel ~ input
        ConvCase{3, 1, 4, 4, 2, 3, 1, 2, false},   // padding > needed
        ConvCase{5, 2, 7, 7, 3, 3, 1, 1, true}));  // batch > pool chunks

// The forward convolution as im2col columns times the weight matrix on
// Sgemm, then the bias: the bytes the direct kernel must reproduce.
Tensor Im2ColSgemmConv(const Tensor& x, const Tensor& w, const Tensor& b,
                       const Conv2dSpec& spec) {
  const int64_t n = x.dim(0), c = x.dim(1);
  const int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int64_t oh = spec.OutExtent(x.dim(2), kh);
  const int64_t ow = spec.OutExtent(x.dim(3), kw);
  const int64_t patch = c * kh * kw, plane = oh * ow;
  Tensor out({n, f, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    const Tensor cols = Im2Col(x, s, kh, kw, spec);
    float* dst = out.data() + s * f * plane;
    Sgemm(false, false, f, plane, patch, 1.0f, w.data(), patch, cols.data(),
          plane, 0.0f, dst, plane);
    if (b.empty()) continue;
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t i = 0; i < plane; ++i) dst[fi * plane + i] += b[fi];
    }
  }
  return out;
}

struct DirectCase {
  int64_t n, c, h, w, f, k, stride, padding;
  bool bias;
};

std::string DescribeCase(const DirectCase& cs) {
  return "n" + std::to_string(cs.n) + " c" + std::to_string(cs.c) + " " +
         std::to_string(cs.h) + "x" + std::to_string(cs.w) + " f" +
         std::to_string(cs.f) + " k" + std::to_string(cs.k) + " s" +
         std::to_string(cs.stride) + " p" + std::to_string(cs.padding) +
         (cs.bias ? " bias" : "");
}

void ExpectDirectMatchesIm2Col(const DirectCase& cs, uint64_t seed) {
  SCOPED_TRACE(DescribeCase(cs));
  Rng rng(seed);
  const Tensor x = Tensor::RandomNormal({cs.n, cs.c, cs.h, cs.w}, &rng);
  const Tensor w = Tensor::RandomNormal({cs.f, cs.c, cs.k, cs.k}, &rng);
  const Tensor b = cs.bias ? Tensor::RandomNormal({cs.f}, &rng) : Tensor();
  const Conv2dSpec spec{cs.stride, cs.padding};
  const Tensor want = Im2ColSgemmConv(x, w, b, spec);
  const Tensor got = Conv2dForward(x, w, b, spec);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.numel()) * sizeof(float)),
            0);
}

// Corners named one by one: widths off the 24-column register tile,
// filter counts off the 4-filter tile, terms per output (c*k*k) on both
// sides of Sgemm's 256-term k-block, and products small enough for
// Sgemm's unblocked small-product loop.
TEST(ConvDirectParityTest, NamedShapesMatchIm2ColSgemmBytes) {
  const std::vector<DirectCase> cases = {
      {1, 1, 1, 1, 1, 1, 1, 0, true},       // one term, small product
      {1, 33, 1, 1, 1, 3, 1, 1, true},      // 297 terms, small: no k-block
      {1, 3, 4, 4, 5, 3, 1, 1, false},      // small product, padded
      {1, 8, 4, 4, 8, 3, 1, 1, true},       // just over the small cut
      {1, 33, 31, 33, 7, 5, 1, 2, true},    // 825 terms: four k-blocks
      {1, 29, 31, 33, 33, 3, 2, 1, false},  // 261 terms, stride 2
      {1, 8, 128, 128, 8, 3, 1, 1, true},   // the serving net's 3x3
      {1, 24, 128, 128, 8, 1, 1, 0, true},  // its 1x1 fusion
      {1, 8, 128, 128, 8, 2, 2, 0, true},   // its 2x2 stride-2 merge
      {1, 8, 128, 128, 1, 1, 1, 0, true},   // its one-filter head
      {1, 5, 100, 70, 6, 5, 3, 2, true},    // stride 3 over padding
      {1, 2, 1, 1, 3, 5, 1, 2, false},      // kernel wider than input
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectDirectMatchesIm2Col(cases[i], 500 + i);
  }
}

// Seeded draws over c, f in 1..33, k in {1, 2, 3, 5}, stride 1..3,
// padding 0..2 and five extents. Draws whose output would be empty are
// redrawn, and so are draws over a work budget that keeps the test fast
// under the sanitizer builds.
TEST(ConvDirectParityTest, SeededShapesMatchIm2ColSgemmBytes) {
  const int64_t extents[][2] = {
      {1, 1}, {4, 4}, {31, 33}, {100, 70}, {128, 128}};
  const int64_t kernels[] = {1, 2, 3, 5};
  Rng rng(2024);
  auto draw = [&rng](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    rng.UniformInt(static_cast<uint64_t>(hi - lo + 1)));
  };
  int drawn = 0;
  while (drawn < 40) {
    DirectCase cs;
    const auto* extent = extents[draw(0, 4)];
    cs.n = 1;
    cs.h = extent[0];
    cs.w = extent[1];
    cs.c = draw(1, 33);
    cs.f = draw(1, 33);
    cs.k = kernels[draw(0, 3)];
    cs.stride = draw(1, 3);
    cs.padding = draw(0, 2);
    cs.bias = draw(0, 1) == 1;
    const Conv2dSpec spec{cs.stride, cs.padding};
    const int64_t oh = spec.OutExtent(cs.h, cs.k);
    const int64_t ow = spec.OutExtent(cs.w, cs.k);
    if (cs.h + 2 * cs.padding < cs.k || cs.w + 2 * cs.padding < cs.k) {
      continue;
    }
    if (cs.f * oh * ow * cs.c * cs.k * cs.k > (int64_t{1} << 23)) continue;
    ExpectDirectMatchesIm2Col(cs, 900 + static_cast<uint64_t>(drawn));
    ++drawn;
  }
}

// Batch-parallel samples on a 4-thread pool: every sample's bytes still
// equal the sequential reference.
TEST(ConvDirectParityTest, BatchOnPoolMatchesIm2ColSgemmBytes) {
  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  ExpectDirectMatchesIm2Col({6, 8, 31, 33, 8, 3, 1, 1, true}, 41);
  ExpectDirectMatchesIm2Col({5, 7, 4, 4, 3, 2, 2, 0, false}, 42);
  ExpectDirectMatchesIm2Col({3, 33, 31, 33, 5, 3, 1, 1, true}, 43);
}

TEST(ConvThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(55);
  Tensor x = Tensor::RandomNormal({8, 3, 12, 12}, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, &rng);
  Tensor b = Tensor::RandomNormal({5}, &rng);
  Conv2dSpec spec{1, 1};

  const Tensor seq_out = Conv2dForward(x, w, b, spec);
  Tensor sgi, sgw, sgb;
  Rng grng(4);
  Tensor go = Tensor::RandomNormal(seq_out.shape(), &grng);
  Conv2dBackward(x, w, go, spec, &sgi, &sgw, &sgb);

  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par_out = Conv2dForward(x, w, b, spec);
  Tensor pgi, pgw, pgb;
  Conv2dBackward(x, w, go, spec, &pgi, &pgw, &pgb);

  ExpectAllCloseRel(par_out, seq_out, 1e-5f, 1e-5f);
  ExpectAllCloseRel(pgi, sgi, 1e-5f, 1e-5f);
  ExpectAllCloseRel(pgw, sgw, 1e-4f, 1e-4f);
  ExpectAllCloseRel(pgb, sgb, 1e-4f, 1e-4f);
}

TEST(SgemmThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(66);
  Tensor a = Tensor::RandomNormal({512, 96}, &rng);
  Tensor b = Tensor::RandomNormal({96, 64}, &rng);
  const Tensor seq = MatMul(a, b);
  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par = MatMul(a, b);
  // Blocked accumulation order is identical with and without fan-out.
  ExpectAllCloseRel(par, seq, 0.0f, 0.0f);
}

TEST(SoftmaxThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(77);
  Tensor logits = Tensor::RandomNormal({256, 128}, &rng, 0.0f, 3.0f);
  Tensor gseq = Tensor::RandomNormal({256, 128}, &rng);
  const Tensor seq = SoftmaxRows(logits);
  const Tensor seq_back = SoftmaxRowsBackward(seq, gseq);
  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par = SoftmaxRows(logits);
  const Tensor par_back = SoftmaxRowsBackward(par, gseq);
  ExpectAllCloseRel(par, seq, 0.0f, 0.0f);
  ExpectAllCloseRel(par_back, seq_back, 0.0f, 0.0f);
}

TEST(WorkspaceTest, ReusesCapacityAcrossResets) {
  Workspace ws;
  float* first = ws.Alloc(1000);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % 64, 0u);
  const size_t capacity = ws.capacity();
  ws.Reset();
  // Same request after Reset reuses the chunk instead of growing.
  float* second = ws.Alloc(1000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(ws.capacity(), capacity);
}

TEST(WorkspaceTest, MarkRestoreNests) {
  Workspace ws;
  float* outer = ws.Alloc(64);
  outer[0] = 42.0f;
  const Workspace::Mark mark = ws.SaveMark();
  float* inner = ws.Alloc(4096);
  inner[0] = 1.0f;
  ws.RestoreMark(mark);
  // The outer span survives the nested scope; its storage is untouched.
  EXPECT_EQ(outer[0], 42.0f);
  // And the rolled-back region is handed out again.
  float* again = ws.Alloc(4096);
  EXPECT_EQ(inner, again);
}

TEST(WorkspaceTest, RestoreKeepsOnlyTheNewestOutgrownChunk) {
  Workspace ws;
  ws.Alloc(16);
  const size_t base = ws.capacity();
  const Workspace::Mark mark = ws.SaveMark();
  // Each request outgrows the newest chunk: a chain of three new chunks.
  ws.Alloc(base);
  ws.Alloc(2 * base);
  ws.Alloc(4 * base);
  const size_t grown = ws.capacity();
  ws.RestoreMark(mark);
  EXPECT_LT(ws.capacity(), grown);
  // The chunk kept is the largest, so the largest request fits again.
  const size_t kept = ws.capacity();
  ws.Alloc(4 * base);
  EXPECT_EQ(ws.capacity(), kept);
}

TEST(WorkspaceTest, ThreadLocalIsPerThread) {
  Workspace* main_ws = Workspace::ThreadLocal();
  Workspace* worker_ws = nullptr;
  ThreadPool pool(2);
  pool.Submit([&] { worker_ws = Workspace::ThreadLocal(); });
  pool.Wait();
  ASSERT_NE(worker_ws, nullptr);
  EXPECT_NE(main_ws, worker_ws);
}

TEST(ComputePoolTest, ScopedInstallAndRestore) {
  EXPECT_EQ(GetComputePool(), nullptr);
  ThreadPool pool(2);
  {
    ScopedComputePool scoped(&pool);
    EXPECT_EQ(GetComputePool(), &pool);
    {
      ScopedComputePool inner(nullptr);
      EXPECT_EQ(GetComputePool(), nullptr);
    }
    EXPECT_EQ(GetComputePool(), &pool);
  }
  EXPECT_EQ(GetComputePool(), nullptr);
}

TEST(ComputePoolTest, PoolWorkersSeeNoAmbientPool) {
  // The nesting-safety invariant: tasks running on pool workers must not
  // observe the submitting thread's compute pool, or they would re-enter
  // it and deadlock.
  ThreadPool pool(2);
  ScopedComputePool scoped(&pool);
  ThreadPool* seen = &pool;
  pool.Submit([&] { seen = GetComputePool(); });
  pool.Wait();
  EXPECT_EQ(seen, nullptr);
}

}  // namespace
}  // namespace one4all
