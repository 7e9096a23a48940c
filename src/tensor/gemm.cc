#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "core/logging.h"
#include "core/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define O4A_GEMM_X86 1
#endif

namespace one4all {

namespace {

// Blocking parameters (floats): the packed A block (MC x KC ~ 120 KiB)
// fits L2, the packed B panel stripe (KC x NR = 16 KiB) streams through
// L1, and the micro-tile is MR x NR = 6 x 16 so an AVX2 build keeps all
// twelve accumulators plus two B vectors and one A broadcast in the
// sixteen ymm registers.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
constexpr int64_t kMc = 120;   // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 4080;  // multiple of kNr

constexpr size_t kAlignFloats = 16;  // 64 bytes

// acc[MR*NR] = sum_p a[p*MR + r] * b[p*NR + j] over packed panels.
using MicroKernelFn = void (*)(int64_t kc, const float* a, const float* b,
                               float* acc);

void MicroKernelGeneric(int64_t kc, const float* a, const float* b,
                        float* acc) {
  float local[kMr * kNr] = {0.0f};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * kNr;
    const float* acol = a + p * kMr;
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = acol[r];
      float* arow = local + r * kNr;
      for (int64_t j = 0; j < kNr; ++j) arow[j] += av * brow[j];
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

#ifdef O4A_GEMM_X86
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(int64_t kc,
                                                         const float* a,
                                                         const float* b,
                                                         float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 av;
    av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
    a += kMr;
    b += kNr;
  }
  _mm256_storeu_ps(acc + 0 * kNr, c00);
  _mm256_storeu_ps(acc + 0 * kNr + 8, c01);
  _mm256_storeu_ps(acc + 1 * kNr, c10);
  _mm256_storeu_ps(acc + 1 * kNr + 8, c11);
  _mm256_storeu_ps(acc + 2 * kNr, c20);
  _mm256_storeu_ps(acc + 2 * kNr + 8, c21);
  _mm256_storeu_ps(acc + 3 * kNr, c30);
  _mm256_storeu_ps(acc + 3 * kNr + 8, c31);
  _mm256_storeu_ps(acc + 4 * kNr, c40);
  _mm256_storeu_ps(acc + 4 * kNr + 8, c41);
  _mm256_storeu_ps(acc + 5 * kNr, c50);
  _mm256_storeu_ps(acc + 5 * kNr + 8, c51);
}
#endif  // O4A_GEMM_X86

struct Dispatch {
  MicroKernelFn kernel;
  const char* name;
  bool fused;  // one rounding per multiply-add
};

Dispatch SelectKernel() {
#ifdef O4A_GEMM_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {MicroKernelAvx2, "avx2-fma", true};
  }
#endif
  return {MicroKernelGeneric, "generic", false};
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = SelectKernel();
  return dispatch;
}

// RAII rollback of a workspace to its state at construction, so nested
// kernel calls can share one thread-local arena.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace* ws) : ws_(ws), mark_(ws->SaveMark()) {}
  ~WorkspaceScope() { ws_->RestoreMark(mark_); }
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace* ws_;
  Workspace::Mark mark_;
};

inline float ElementA(const float* a, int64_t lda, bool trans, int64_t i,
                      int64_t p) {
  return trans ? a[p * lda + i] : a[i * lda + p];
}

// Packs rows [ic, ic+mc) x cols [pc, pc+kc) of op(A) into MR-row panels,
// zero-padding the ragged final panel.
void PackA(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, float* out) {
  for (int64_t ir = 0; ir < mc; ir += kMr) {
    const int64_t rows = std::min(kMr, mc - ir);
    float* panel = out + (ir / kMr) * kc * kMr;
    if (!trans) {
      for (int64_t p = 0; p < kc; ++p) {
        float* dst = panel + p * kMr;
        for (int64_t r = 0; r < rows; ++r) {
          dst[r] = a[(ic + ir + r) * lda + (pc + p)];
        }
        for (int64_t r = rows; r < kMr; ++r) dst[r] = 0.0f;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * lda + ic + ir;
        float* dst = panel + p * kMr;
        for (int64_t r = 0; r < rows; ++r) dst[r] = src[r];
        for (int64_t r = rows; r < kMr; ++r) dst[r] = 0.0f;
      }
    }
  }
}

// Packs the NR-column panels covering cols [jr_begin, jr_end) of the
// op(B) block rows [pc, pc+kc) x cols [jc, jc+nc), zero-padding the
// ragged final panel. Panel-ranged so the threaded path can split the
// packing itself across workers (panels write disjoint spans of `out`).
void PackB(const float* b, int64_t ldb, bool trans, int64_t pc, int64_t jc,
           int64_t kc, int64_t nc, int64_t jr_begin, int64_t jr_end,
           float* out) {
  for (int64_t jr = jr_begin; jr < jr_end; jr += kNr) {
    const int64_t cols = std::min(kNr, nc - jr);
    float* panel = out + (jr / kNr) * kc * kNr;
    if (!trans) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + jr;
        float* dst = panel + p * kNr;
        for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
        for (int64_t j = cols; j < kNr; ++j) dst[j] = 0.0f;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        float* dst = panel + p * kNr;
        for (int64_t j = 0; j < cols; ++j) {
          dst[j] = b[(jc + jr + j) * ldb + (pc + p)];
        }
        for (int64_t j = cols; j < kNr; ++j) dst[j] = 0.0f;
      }
    }
  }
}

// Applies a finished micro-tile to C: C = alpha*acc + beta_cur*C over the
// tile's valid extent.
void UpdateTile(float* c, int64_t ldc, int64_t rows, int64_t cols,
                float alpha, float beta_cur, const float* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNr;
    if (beta_cur == 0.0f) {
      for (int64_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
    } else if (beta_cur == 1.0f) {
      for (int64_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    } else {
      for (int64_t j = 0; j < cols; ++j) {
        crow[j] = alpha * arow[j] + beta_cur * crow[j];
      }
    }
  }
}

// One packed MC x KC block of A against the packed B block: the two
// innermost panel loops plus the micro-kernel.
void RunABlock(const float* apack, const float* bpack, int64_t mc,
               int64_t nc, int64_t kc, int64_t ic, int64_t jc, float alpha,
               float beta_cur, float* c, int64_t ldc) {
  const MicroKernelFn kernel = GetDispatch().kernel;
  float acc[kMr * kNr];
  for (int64_t jr = 0; jr < nc; jr += kNr) {
    const float* bpanel = bpack + (jr / kNr) * kc * kNr;
    const int64_t cols = std::min(kNr, nc - jr);
    for (int64_t ir = 0; ir < mc; ir += kMr) {
      const float* apanel = apack + (ir / kMr) * kc * kMr;
      const int64_t rows = std::min(kMr, mc - ir);
      kernel(kc, apanel, bpanel, acc);
      UpdateTile(c + (ic + ir) * ldc + jc + jr, ldc, rows, cols, alpha,
                 beta_cur, acc);
    }
  }
}

void ScaleC(float* c, int64_t ldc, int64_t m, int64_t n, float beta) {
  if (beta == 1.0f) return;
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else {
      for (int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// Small products are dominated by packing overhead; a plain register-width
// loop wins below this many multiply-adds.
constexpr int64_t kSmallFlops = 16 * 16 * 16;

void SgemmSmall(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda, const float* b,
                int64_t ldb, float beta, float* c, int64_t ldc) {
  ScaleC(c, ldc, m, n, beta);
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t p = 0; p < k; ++p) {
      const float av = alpha * ElementA(a, lda, trans_a, i, p);
      if (av == 0.0f) continue;
      if (!trans_b) {
        const float* brow = b + p * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += av * b[j * ldb + p];
      }
    }
  }
}

}  // namespace

float* Workspace::Alloc(size_t count) {
  const size_t need = count + kAlignFloats;
  // Bump only the newest chunk: older chunks are frozen until Reset,
  // which is what lets a Mark be two scalars instead of a vector.
  if (chunks_.empty() || chunks_.back().capacity - chunks_.back().used < need) {
    // Grow geometrically past the total so steady-state reuse settles
    // into the newest chunk.
    size_t capacity = std::max<size_t>(need, size_t{1} << 16);
    for (const Chunk& chunk : chunks_) {
      capacity = std::max(capacity, chunk.capacity * 2);
    }
    Chunk chunk;
    // Not value-initialized: spans are handed out uninitialized, and a
    // page the arena never writes then never becomes resident.
    chunk.data.reset(new float[capacity]);
    chunk.capacity = capacity;
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  float* base = chunk.data.get() + chunk.used;
  chunk.used += need;
  const auto addr = reinterpret_cast<uintptr_t>(base);
  const uintptr_t aligned = (addr + 63) & ~static_cast<uintptr_t>(63);
  return reinterpret_cast<float*>(aligned);
}

void Workspace::Reset() {
  for (Chunk& chunk : chunks_) chunk.used = 0;
}

size_t Workspace::capacity() const {
  size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.capacity;
  return total;
}

Workspace::Mark Workspace::SaveMark() const {
  Mark mark;
  mark.num_chunks = chunks_.size();
  mark.used = chunks_.empty() ? 0 : chunks_.back().used;
  return mark;
}

void Workspace::RestoreMark(const Mark& mark) {
  // Chunks made after the mark hold no live span, and no live mark names
  // them. Keep only the newest, which is at least twice every older one,
  // so an arena that grew step by step keeps one large chunk resident
  // instead of the whole chain of outgrown ones.
  if (chunks_.size() > mark.num_chunks + 1) {
    const auto first = static_cast<std::ptrdiff_t>(mark.num_chunks);
    chunks_.erase(chunks_.begin() + first, chunks_.end() - 1);
  }
  for (size_t i = mark.num_chunks; i < chunks_.size(); ++i) {
    chunks_[i].used = 0;
  }
  if (mark.num_chunks > 0) chunks_[mark.num_chunks - 1].used = mark.used;
}

Workspace* Workspace::ThreadLocal() {
  static thread_local Workspace workspace;
  return &workspace;
}

namespace {
thread_local ThreadPool* g_compute_pool = nullptr;
}  // namespace

ThreadPool* GetComputePool() { return g_compute_pool; }

ThreadPool* ResolveComputePool(ThreadPool* explicit_pool) {
  ThreadPool* pool = explicit_pool;
  if (pool == nullptr) pool = g_compute_pool;
  if (pool == nullptr && !ThreadPool::OnWorkerThread()) {
    pool = ThreadPool::Shared();
  }
  return pool != nullptr && pool->num_threads() > 1 ? pool : nullptr;
}

ScopedComputePool::ScopedComputePool(ThreadPool* pool)
    : previous_(g_compute_pool) {
  g_compute_pool = pool;
}

ScopedComputePool::~ScopedComputePool() { g_compute_pool = previous_; }

const char* SgemmKernelName() { return GetDispatch().name; }

SgemmRounding SgemmRoundingFor(int64_t m, int64_t n, int64_t k) {
  if (m * n * k <= kSmallFlops) return {false, std::max<int64_t>(k, 1)};
  return {GetDispatch().fused, kKc};
}

void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc, Workspace* ws,
           ThreadPool* pool) {
  O4A_DCHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    ScaleC(c, ldc, m, n, beta);
    return;
  }
  if (m * n * k <= kSmallFlops) {
    SgemmSmall(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
               ldc);
    return;
  }

  if (ws == nullptr) ws = Workspace::ThreadLocal();
  if (pool == nullptr) pool = GetComputePool();
  const bool threaded = pool != nullptr && pool->num_threads() > 1 &&
                        m >= 2 * kMc;

  WorkspaceScope scope(ws);
  // Sized to the actual block extents, not the kKc*kNc maximum (~4 MB):
  // the NR-rounded panel for the largest (kc, nc) block this call uses.
  const int64_t kb = std::min(k, kKc);
  const int64_t nb = std::min(((n + kNr - 1) / kNr) * kNr, kNc);
  float* bpack = ws->Alloc(static_cast<size_t>(kb * nb));

  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      // First k-block applies the caller's beta; later blocks accumulate.
      const float beta_cur = pc == 0 ? beta : 1.0f;
      if (threaded) {
        // Split the B pack across workers too — a serial pack here would
        // idle the pool once per k-block and cap the fan-out's scaling.
        const int64_t num_panels = (nc + kNr - 1) / kNr;
        pool->ParallelFor(num_panels, [&](int64_t panel_begin,
                                          int64_t panel_end) {
          PackB(b, ldb, trans_b, pc, jc, kc, nc, panel_begin * kNr,
                std::min(nc, panel_end * kNr), bpack);
        });
      } else {
        PackB(b, ldb, trans_b, pc, jc, kc, nc, 0, nc, bpack);
      }

      const int64_t mb =
          std::min(((m + kMr - 1) / kMr) * kMr, kMc);  // MR-rounded A rows
      auto run_rows = [&](int64_t ic_begin, int64_t ic_end) {
        Workspace* local = Workspace::ThreadLocal();
        WorkspaceScope local_scope(local);
        float* apack = local->Alloc(static_cast<size_t>(mb * kb));
        for (int64_t ic = ic_begin; ic < ic_end; ic += kMc) {
          const int64_t mc = std::min(kMc, m - ic);
          PackA(a, lda, trans_a, ic, pc, mc, kc, apack);
          RunABlock(apack, bpack, mc, nc, kc, ic, jc, alpha, beta_cur, c,
                    ldc);
        }
      };

      if (threaded) {
        const int64_t num_blocks = (m + kMc - 1) / kMc;
        pool->ParallelFor(num_blocks, [&](int64_t block_begin,
                                          int64_t block_end) {
          run_rows(block_begin * kMc, std::min(m, block_end * kMc));
        });
      } else {
        run_rows(0, m);
      }
    }
  }
}

}  // namespace one4all
