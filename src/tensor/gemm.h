// Cache-blocked, register-tiled SGEMM and the workspace arena backing the
// tensor kernel layer. Sgemm packs panels of A and B into thread-local
// scratch (MC/KC/NC blocking, an MR x NR micro-kernel) and dispatches to an
// AVX2+FMA micro-kernel at runtime when the CPU supports it. Workspace is a
// bump arena so im2col buffers and packing panels are allocated once per
// thread and recycled across calls instead of hitting the heap per GEMM.
#ifndef ONE4ALL_TENSOR_GEMM_H_
#define ONE4ALL_TENSOR_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace one4all {

class ThreadPool;

/// \brief Bump-allocation arena for kernel scratch (packing panels, im2col
/// columns, per-sample partials). Alloc() hands out 64-byte-aligned float
/// spans that stay valid until the next Reset(); Reset() recycles the
/// memory without releasing it, so steady-state kernels never allocate.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// \brief Returns a 64-byte-aligned, uninitialized span of `count`
  /// floats, valid until Reset() or destruction.
  float* Alloc(size_t count);

  /// \brief Recycles every span handed out so far; capacity is retained.
  void Reset();

  /// \brief Opaque snapshot of the arena's allocation state. Nested kernel
  /// calls save a mark on entry and restore it on exit so they can share
  /// one thread-local arena without clobbering the caller's live spans.
  /// Plain-old-data (allocation only ever bumps the newest chunk, so two
  /// scalars pin the whole state) — saving a mark never allocates.
  struct Mark {
    size_t num_chunks = 0;  ///< chunks existing at save time
    size_t used = 0;        ///< bump offset of the newest chunk then
  };
  Mark SaveMark() const;
  /// \brief Rolls back to `mark`. Of the chunks made after it, only the
  /// newest (the largest) is kept; the others are freed.
  void RestoreMark(const Mark& mark);

  /// \brief Total floats of backing capacity currently held.
  size_t capacity() const;

  /// \brief Per-thread arena: one persistent Workspace per OS thread, so
  /// pool workers reuse their scratch across tasks with zero contention.
  static Workspace* ThreadLocal();

 private:
  struct Chunk {
    std::unique_ptr<float[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<Chunk> chunks_;
};

/// \brief The ambient compute pool for kernel-level parallelism on the
/// calling thread (thread_local, so tasks already running on pool workers
/// see none and never re-enter their own pool). Null means sequential.
ThreadPool* GetComputePool();

/// \brief The one pool-resolution policy for "which pool should this
/// compute fan out over": an explicit pool wins, then the calling
/// thread's ambient compute pool, then the process-wide
/// ThreadPool::Shared() — except on a pool worker thread, which must
/// never default to waiting on a pool (its own) and stays sequential.
/// Returns null when the result would not actually parallelize
/// (<= 1 worker). Every site that *defaults* to Shared() must resolve
/// through here so the worker-thread deadlock guard cannot be forgotten.
ThreadPool* ResolveComputePool(ThreadPool* explicit_pool = nullptr);

/// \brief Installs `pool` as the calling thread's compute pool for the
/// lifetime of the guard; restores the previous pool on destruction.
/// Trainer / prediction ingest / benches wrap their compute in one of
/// these so every kernel underneath fans out over the shared pool.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

/// \brief C[M,N] = alpha * op(A) x op(B) + beta * C over row-major buffers
/// with leading dimensions lda/ldb/ldc. op(A) is [M,K]: A is stored [M,K]
/// when !trans_a (lda >= K) and [K,M] when trans_a (lda >= M); op(B) is
/// [K,N] analogously. Scratch comes from `ws` (thread-local arena when
/// null); `pool` splits row blocks across workers (ambient pool when
/// null, sequential when none is installed).
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc,
           Workspace* ws = nullptr, ThreadPool* pool = nullptr);

/// \brief Name of the micro-kernel the runtime dispatcher selected
/// ("avx2-fma" or "generic"); for logs and bench output.
const char* SgemmKernelName();

/// \brief How Sgemm rounds C = op(A) x op(B) (alpha 1, beta 0) for an
/// [m, k] x [k, n] product, for kernels that must reproduce its bits (the
/// direct convolution). C[i][j] is the in-order sum of partial sums over
/// consecutive blocks of `k_block` terms; each partial sum starts at zero
/// and adds its terms in k order, rounding once per term when `fused`
/// (the AVX2+FMA micro-kernel) and after the product and again after the
/// sum otherwise (the portable micro-kernel, and the small-product loop,
/// which does not block k).
struct SgemmRounding {
  bool fused = false;
  int64_t k_block = 0;
};
SgemmRounding SgemmRoundingFor(int64_t m, int64_t n, int64_t k);

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_GEMM_H_
