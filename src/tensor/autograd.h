// Tape-based reverse-mode automatic differentiation over Tensor.
//
// A Variable wraps a shared node holding the forward value, an accumulated
// gradient, parent links and a backward closure. Calling Backward() on a
// scalar-valued Variable topologically sorts the tape and accumulates
// gradients into every node with requires_grad. Gradients for every op are
// unit-tested against central finite differences.
//
// Forward-only passes (serving inference, offline prediction, validation
// loss) run inside a NoTapeScope: every op then returns a value-only node
// with no parents and no closure, and its output buffer is drawn from and
// returned to the scope's BufferPool. The values are bit-identical to the
// taped ones; only the graph and the allocations are gone.
#ifndef ONE4ALL_TENSOR_AUTOGRAD_H_
#define ONE4ALL_TENSOR_AUTOGRAD_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace one4all {

namespace internal {
struct VarNode {
  Tensor value;
  Tensor grad;  // allocated on demand, same shape as value
  bool requires_grad = false;
  bool grad_ready = false;
  std::vector<std::shared_ptr<VarNode>> parents;
  // Propagates this node's grad into parents' grads.
  std::function<void(VarNode*)> backward_fn;
  /// Set only on a value computed inside a NoTapeScope (which Backward()
  /// refuses): the scope's pool, which gets `value`'s buffer on drop.
  std::shared_ptr<BufferPool> pool;

  VarNode() = default;
  VarNode(const VarNode&) = delete;
  VarNode& operator=(const VarNode&) = delete;
  ~VarNode() {
    if (pool) pool->Recycle(&value);
  }

  void EnsureGrad() {
    if (!grad_ready) {
      grad = Tensor(value.shape());
      grad_ready = true;
    }
  }
};
}  // namespace internal

/// \brief Runs the enclosed ops on the calling thread without a tape.
///
/// While one is alive, every op returns a value-only Variable (no
/// parents, no backward closure; Backward() on it dies), and op outputs
/// that overwrite every element draw their storage from the scope's
/// BufferPool, to which a dropped value returns it. Scopes nest: an inner
/// scope built without a pool shares the enclosing scope's, so a caller
/// that opens one around a whole batch loop, or owns a pool across calls
/// (the serving inference), keeps its buffers warm through every pass
/// beneath it. A scope built without a pool outside any other owns a fresh
/// one, freed once the scope and the values made in it are gone.
class NoTapeScope {
 public:
  NoTapeScope();
  explicit NoTapeScope(std::shared_ptr<BufferPool> pool);
  ~NoTapeScope();
  NoTapeScope(const NoTapeScope&) = delete;
  NoTapeScope& operator=(const NoTapeScope&) = delete;

  /// \brief True while a scope is open on the calling thread.
  static bool Active();

 private:
  friend class Variable;

  std::shared_ptr<BufferPool> pool_;
  NoTapeScope* outer_;
  BufferPool* outer_pool_;
};

/// \brief Taped nodes (parent links kept for Backward) built on the calling
/// thread so far. A pass inside a NoTapeScope adds none; tests and
/// bench_kernels diff it around a call.
int64_t TapedNodeCount();

/// \brief A node in the autodiff graph; cheap to copy (shared ownership).
class Variable {
 public:
  Variable() = default;

  /// \brief Wraps a tensor as a leaf. `requires_grad` marks trainable
  /// parameters; inputs and constants should pass false.
  explicit Variable(Tensor value, bool requires_grad = false);

  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }

  /// \brief Accumulated gradient; valid after Backward(). Zero tensor if
  /// backward never reached this node.
  const Tensor& grad() const;

  bool requires_grad() const { return node_ && node_->requires_grad; }
  bool defined() const { return node_ != nullptr; }

  /// \brief Clears the gradient buffer (between optimizer steps).
  void ZeroGrad();

  /// \brief Runs reverse-mode autodiff from this (scalar) Variable.
  /// Requires numel() == 1 and a value computed with the tape recording.
  void Backward();

  /// \brief Internal: builds a non-leaf node. Inside a NoTapeScope the
  /// node keeps no parents and `backward` is dropped without ever being
  /// wrapped in a std::function.
  template <typename Backward>
  static Variable MakeNode(Tensor value, std::initializer_list<Variable> parents,
                           Backward&& backward) {
    if (NoTapeScope::Active()) return MakeUntaped(std::move(value));
    return MakeTaped(std::move(value), std::vector<Variable>(parents),
                     std::forward<Backward>(backward));
  }
  template <typename Backward>
  static Variable MakeNode(Tensor value, const std::vector<Variable>& parents,
                           Backward&& backward) {
    if (NoTapeScope::Active()) return MakeUntaped(std::move(value));
    return MakeTaped(std::move(value), parents,
                     std::forward<Backward>(backward));
  }

  /// \brief Internal: true when no tape records and this handle is the
  /// only owner of a value made inside a NoTapeScope, so an op handed it
  /// as an rvalue may overwrite its value in place.
  bool OverwritableInPlace() const;

  std::shared_ptr<internal::VarNode> node() const { return node_; }

 private:
  static Variable MakeUntaped(Tensor value);
  static Variable MakeTaped(Tensor value, std::vector<Variable> parents,
                            std::function<void(internal::VarNode*)> backward);

  std::shared_ptr<internal::VarNode> node_;
};

// ---- Differentiable operations ----------------------------------------

/// \brief Elementwise sum; shapes must match.
Variable Add(const Variable& a, const Variable& b);
/// \brief Add into `b`'s buffer when b is an overwritable temporary.
Variable Add(const Variable& a, Variable&& b);
/// \brief Elementwise difference.
Variable Sub(const Variable& a, const Variable& b);
/// \brief Elementwise (Hadamard) product.
Variable Mul(const Variable& a, const Variable& b);
/// \brief Multiplication by a constant scalar.
Variable Scale(const Variable& a, float factor);

/// \brief max(x, 0).
Variable Relu(const Variable& a);
/// \brief In place when `a` is an overwritable temporary.
Variable Relu(Variable&& a);
/// \brief Logistic sigmoid.
Variable Sigmoid(const Variable& a);
/// \brief Hyperbolic tangent.
Variable Tanh(const Variable& a);

/// \brief 2-D matrix product [M,K]x[K,N].
Variable MatMulVar(const Variable& a, const Variable& b);

/// \brief y = x W + b with x [M,K], w [K,N], b [N] (b may be undefined).
Variable LinearVar(const Variable& x, const Variable& w, const Variable& b);

/// \brief NCHW convolution (see Conv2dForward). Bias may be undefined.
Variable Conv2dVar(const Variable& input, const Variable& weight,
                   const Variable& bias, const Conv2dSpec& spec);

/// \brief [N,C,H,W] -> [N,C,1,1] mean pool.
Variable GlobalAvgPoolVar(const Variable& input);

/// \brief Nearest-neighbour upsample by an integer factor.
Variable UpsampleNearestVar(const Variable& input, int64_t factor);

/// \brief Concatenation along the channel axis.
Variable ConcatChannelsVar(const std::vector<Variable>& inputs);

/// \brief x [N,C,H,W] scaled per-channel by gate [N,C,1,1] (SE excitation).
Variable MulChannelGate(const Variable& x, const Variable& gate);

/// \brief Row-wise softmax on a 2-D tensor.
Variable SoftmaxRowsVar(const Variable& logits);

/// \brief Sum of all elements -> scalar [1].
Variable SumAll(const Variable& a);
/// \brief Mean of all elements -> scalar [1].
Variable MeanAll(const Variable& a);

/// \brief Mean squared error against a constant target -> scalar [1].
Variable MseLoss(const Variable& pred, const Tensor& target);

/// \brief Reshape preserving volume.
Variable ReshapeVar(const Variable& a, std::vector<int64_t> shape);

/// \brief Crops an NCHW tensor to its top-left [out_h, out_w] window
/// (aligns upsampled coarse maps with ceil-divided finer layers).
Variable Crop2dVar(const Variable& a, int64_t out_h, int64_t out_w);

/// \brief Zero-pads an NCHW tensor on the bottom/right to [out_h, out_w]
/// (the inverse of Crop2dVar; used before strided merges on ceil-divided
/// layers).
Variable Pad2dVar(const Variable& a, int64_t out_h, int64_t out_w);

/// \brief Rows [r0, r1) of a 2-D tensor.
Variable SliceRowsVar(const Variable& a, int64_t r0, int64_t r1);

/// \brief Stacks 2-D tensors with equal column counts along rows.
Variable ConcatRowsVar(const std::vector<Variable>& inputs);

/// \brief a [M,K] x b^T where b is stored [N,K] -> [M,N].
Variable MatMulTransBVar(const Variable& a, const Variable& b);

/// \brief [N,C,H,W] -> [N*HW, C] node-feature matrix (row = n*HW + h*W+w).
/// The building block of the graph-based baselines.
Variable NchwToNodeRowsVar(const Variable& a);

/// \brief Inverse of NchwToNodeRowsVar.
Variable NodeRowsToNchwVar(const Variable& a, int64_t n, int64_t c,
                           int64_t h, int64_t w);

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_AUTOGRAD_H_
