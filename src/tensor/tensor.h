// Dense row-major float tensor. The numeric substrate for the One4All-ST
// network: value-semantic, contiguous storage, explicit shapes.
#ifndef ONE4ALL_TENSOR_TENSOR_H_
#define ONE4ALL_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/logging.h"
#include "core/rng.h"

namespace one4all {

/// \brief Dense N-dimensional float tensor with row-major contiguous data.
///
/// Shapes are vectors of int64_t. Elementwise operators require identical
/// shapes (no implicit broadcasting — broadcast helpers are explicit, e.g.
/// AddChannelBias). Copying copies the buffer; moves are cheap.
class Tensor {
 public:
  Tensor() = default;

  /// \brief Allocates a zero-filled tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// \brief A tensor whose every element the caller writes. Inside a
  /// NoTapeScope (tensor/autograd.h) its storage is a recycled buffer
  /// from the scope's BufferPool and holds stale values; elsewhere it is
  /// zero-filled like Tensor(shape).
  static Tensor Uninitialized(std::vector<int64_t> shape);

  static Tensor Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// \brief Wraps existing data; `data.size()` must equal the shape volume.
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> data);
  /// \brief I.i.d. uniform values in [lo, hi).
  static Tensor RandomUniform(std::vector<int64_t> shape, Rng* rng,
                              float lo = 0.0f, float hi = 1.0f);
  /// \brief I.i.d. normal values.
  static Tensor RandomNormal(std::vector<int64_t> shape, Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(size_t i) const {
    O4A_CHECK_LT(i, shape_.size());
    return shape_[i];
  }
  size_t ndim() const { return shape_.size(); }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    O4A_DCHECK(i >= 0 && i < numel_);
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    O4A_DCHECK(i >= 0 && i < numel_);
    return data_[static_cast<size_t>(i)];
  }

  /// \brief 2-D accessor; requires ndim() == 2.
  float& at(int64_t i, int64_t j) {
    O4A_DCHECK(ndim() == 2);
    return data_[static_cast<size_t>(i * shape_[1] + j)];
  }
  float at(int64_t i, int64_t j) const {
    O4A_DCHECK(ndim() == 2);
    return data_[static_cast<size_t>(i * shape_[1] + j)];
  }

  /// \brief 4-D accessor; requires ndim() == 4.
  float& at(int64_t n, int64_t c, int64_t h, int64_t w) {
    O4A_DCHECK(ndim() == 4);
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const {
    O4A_DCHECK(ndim() == 4);
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// \brief Returns a copy with a new shape of equal volume.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// \brief True when shapes match and all elements are within `atol`.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

  // -- In-place elementwise updates ------------------------------------
  Tensor& AddInPlace(const Tensor& other);
  Tensor& SubInPlace(const Tensor& other);
  Tensor& MulInPlace(const Tensor& other);
  Tensor& ScaleInPlace(float factor);
  Tensor& AddScaledInPlace(const Tensor& other, float factor);  // this += f*other
  void Fill(float value);

  // -- Pure elementwise operations -------------------------------------
  Tensor Add(const Tensor& other) const;
  Tensor Sub(const Tensor& other) const;
  Tensor Mul(const Tensor& other) const;
  Tensor Div(const Tensor& other) const;
  Tensor AddScalar(float value) const;
  Tensor MulScalar(float value) const;

  // -- Reductions -------------------------------------------------------
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  /// \brief Sum of squared elements.
  float SquaredNorm() const;

  /// \brief Compact debug string: shape plus the first few values.
  std::string ToString(int64_t max_values = 8) const;

 private:
  friend class BufferPool;

  std::vector<int64_t> shape_;
  std::vector<float> data_;
  int64_t numel_ = 0;

  static int64_t Volume(const std::vector<int64_t>& shape);
};

/// \brief A free list of tensor storage, matched by exact element count.
///
/// Forward-only passes (NoTapeScope) draw op outputs from one so that a
/// steady stream of same-shaped calls stops allocating, zero-filling and
/// page-faulting its intermediates. Only buffers the pool handed out come
/// back to it, so it never holds more than its callers once held at once.
/// Thread-safe; typically used by one thread at a time.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief A tensor of `shape` on a free buffer of equal size (stale
  /// values), or on fresh zero-filled storage when none is free.
  Tensor Take(std::vector<int64_t> shape);

  /// \brief Moves `t`'s storage onto the free list if this pool handed it
  /// out; otherwise leaves `t` alone. Either way `t` may then be dropped.
  void Recycle(Tensor* t);

  /// \brief Floats held on the free list.
  size_t free_floats() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<float>> free_;
  std::unordered_set<const float*> lent_;  // storage handed out, not back
};

namespace internal {
/// \brief The calling thread's active pool (null outside a NoTapeScope);
/// Tensor::Uninitialized draws from it.
BufferPool* ThreadBufferPool();
/// \brief Installs `pool` as the calling thread's active pool and returns
/// the previous one (NoTapeScope's constructor and destructor).
BufferPool* SetThreadBufferPool(BufferPool* pool);
}  // namespace internal

/// \brief Checks two shapes for equality with a fatal diagnostic.
void CheckSameShape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_TENSOR_H_
