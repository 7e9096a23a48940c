#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace one4all {

int64_t Tensor::Volume(const std::vector<int64_t>& shape) {
  int64_t v = 1;
  for (int64_t d : shape) {
    O4A_CHECK_GE(d, 0);
    v *= d;
  }
  return v;
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(Volume(shape_)) {
  data_.assign(static_cast<size_t>(numel_), 0.0f);
}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  BufferPool* pool = internal::ThreadBufferPool();
  return pool != nullptr ? pool->Take(std::move(shape))
                         : Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  return Full(std::move(shape), 1.0f);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> data) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = Volume(t.shape_);
  O4A_CHECK_EQ(static_cast<int64_t>(data.size()), t.numel_);
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::RandomUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                             float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel_; ++i) {
    t.data_[static_cast<size_t>(i)] =
        static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomNormal(std::vector<int64_t> shape, Rng* rng, float mean,
                            float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel_; ++i) {
    t.data_[static_cast<size_t>(i)] =
        static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  O4A_CHECK_EQ(Volume(new_shape), numel_);
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.numel_ = numel_;
  t.data_ = data_;
  return t;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < numel_; ++i) {
    if (std::fabs(data_[static_cast<size_t>(i)] -
                  other.data_[static_cast<size_t>(i)]) > atol) {
      return false;
    }
  }
  return true;
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  O4A_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << a.ToString(0) << " vs "
      << b.ToString(0);
}

Tensor& Tensor::AddInPlace(const Tensor& other) {
  CheckSameShape(*this, other, "AddInPlace");
  for (int64_t i = 0; i < numel_; ++i) {
    data_[static_cast<size_t>(i)] += other.data_[static_cast<size_t>(i)];
  }
  return *this;
}

Tensor& Tensor::SubInPlace(const Tensor& other) {
  CheckSameShape(*this, other, "SubInPlace");
  for (int64_t i = 0; i < numel_; ++i) {
    data_[static_cast<size_t>(i)] -= other.data_[static_cast<size_t>(i)];
  }
  return *this;
}

Tensor& Tensor::MulInPlace(const Tensor& other) {
  CheckSameShape(*this, other, "MulInPlace");
  for (int64_t i = 0; i < numel_; ++i) {
    data_[static_cast<size_t>(i)] *= other.data_[static_cast<size_t>(i)];
  }
  return *this;
}

Tensor& Tensor::ScaleInPlace(float factor) {
  for (auto& v : data_) v *= factor;
  return *this;
}

Tensor& Tensor::AddScaledInPlace(const Tensor& other, float factor) {
  CheckSameShape(*this, other, "AddScaledInPlace");
  for (int64_t i = 0; i < numel_; ++i) {
    data_[static_cast<size_t>(i)] +=
        factor * other.data_[static_cast<size_t>(i)];
  }
  return *this;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::Add(const Tensor& other) const {
  Tensor out = *this;
  out.AddInPlace(other);
  return out;
}

Tensor Tensor::Sub(const Tensor& other) const {
  Tensor out = *this;
  out.SubInPlace(other);
  return out;
}

Tensor Tensor::Mul(const Tensor& other) const {
  Tensor out = *this;
  out.MulInPlace(other);
  return out;
}

Tensor Tensor::Div(const Tensor& other) const {
  CheckSameShape(*this, other, "Div");
  Tensor out = *this;
  for (int64_t i = 0; i < numel_; ++i) {
    out.data_[static_cast<size_t>(i)] /= other.data_[static_cast<size_t>(i)];
  }
  return out;
}

Tensor Tensor::AddScalar(float value) const {
  Tensor out = *this;
  for (auto& v : out.data_) v += value;
  return out;
}

Tensor Tensor::MulScalar(float value) const {
  Tensor out = *this;
  out.ScaleInPlace(value);
  return out;
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  O4A_CHECK_GT(numel_, 0);
  return Sum() / static_cast<float>(numel_);
}

float Tensor::Min() const {
  O4A_CHECK_GT(numel_, 0);
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  O4A_CHECK_GT(numel_, 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::SquaredNorm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(s);
}

std::string Tensor::ToString(int64_t max_values) const {
  std::ostringstream oss;
  oss << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << "x";
    oss << shape_[i];
  }
  oss << "]";
  if (max_values > 0 && numel_ > 0) {
    oss << " {";
    int64_t n = std::min<int64_t>(max_values, numel_);
    for (int64_t i = 0; i < n; ++i) {
      if (i) oss << ", ";
      oss << data_[static_cast<size_t>(i)];
    }
    if (n < numel_) oss << ", ...";
    oss << "}";
  }
  return oss.str();
}

Tensor BufferPool::Take(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = Tensor::Volume(t.shape_);
  const size_t size = static_cast<size_t>(t.numel_);
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first: the buffer most recently dropped is the one most
  // likely still in cache.
  for (size_t i = free_.size(); i-- > 0;) {
    if (free_[i].size() != size) continue;
    t.data_ = std::move(free_[i]);
    if (i + 1 != free_.size()) free_[i] = std::move(free_.back());
    free_.pop_back();
    break;
  }
  if (t.data_.size() != size) t.data_.assign(size, 0.0f);
  lent_.insert(t.data_.data());
  return t;
}

void BufferPool::Recycle(Tensor* t) {
  if (t->data_.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (lent_.erase(t->data_.data()) == 0) return;
  free_.push_back(std::move(t->data_));
  t->data_.clear();
  t->numel_ = 0;
  t->shape_.clear();
}

size_t BufferPool::free_floats() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const std::vector<float>& buffer : free_) total += buffer.size();
  return total;
}

namespace internal {
namespace {
thread_local BufferPool* g_thread_buffer_pool = nullptr;
}  // namespace

BufferPool* ThreadBufferPool() { return g_thread_buffer_pool; }

BufferPool* SetThreadBufferPool(BufferPool* pool) {
  BufferPool* previous = g_thread_buffer_pool;
  g_thread_buffer_pool = pool;
  return previous;
}
}  // namespace internal

}  // namespace one4all
