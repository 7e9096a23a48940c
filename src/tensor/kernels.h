// Numeric kernels used by the autograd layer: matmul, convolution (a
// direct forward, an im2col backward), pooling, nearest-neighbour
// upsampling, channel concatenation, and softmax. All operate on NCHW
// tensors.
//
// The matmul and convolution-backward entry points run on the blocked
// SGEMM in tensor/gemm.h; the convolution forward reproduces its bytes
// with register tiles read from the input rows. Scratch comes from the
// calling thread's Workspace arena and, when a compute pool is installed
// (ScopedComputePool), convolutions fan out batch samples and large
// matmuls fan out row blocks across it.
// The scalar reference implementations live on in namespace `naive` as
// the parity oracle for tests and benchmarks.
#ifndef ONE4ALL_TENSOR_KERNELS_H_
#define ONE4ALL_TENSOR_KERNELS_H_

#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace one4all {

/// \brief C[M,N] = A[M,K] x B[K,N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// \brief C[M,N] = A^T[M,K] x B[K,N] where A is stored [K,M].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// \brief C[M,N] = A[M,K] x B^T[K,N] where B is stored [N,K].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// \brief Returns the transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// \brief Geometry of a 2-D convolution.
struct Conv2dSpec {
  int64_t stride = 1;
  int64_t padding = 0;

  /// \brief Output spatial size for an input extent `in`, kernel `k`.
  int64_t OutExtent(int64_t in, int64_t k) const {
    return (in + 2 * padding - k) / stride + 1;
  }
};

/// \brief Unrolls input patches into a matrix of shape
/// [C*kh*kw, out_h*out_w] for one sample; the building block of the
/// convolution backward and of the forward's reference.
Tensor Im2Col(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
              const Conv2dSpec& spec);

/// \brief Im2Col writing into caller-provided storage of at least
/// C*kh*kw * out_h*out_w floats (a Workspace span on the hot path), so
/// steady-state convolutions allocate nothing.
void Im2ColInto(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, float* out);

/// \brief Scatters an im2col matrix back into an input gradient (col2im).
void Col2Im(const Tensor& cols, int64_t kh, int64_t kw,
            const Conv2dSpec& spec, Tensor* grad_input, int64_t sample);

/// \brief Col2Im reading from raw [C*kh*kw, out_h*out_w] storage (a
/// Workspace span on the hot path).
void Col2ImFrom(const float* cols, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, Tensor* grad_input, int64_t sample);

/// \brief 2-D convolution. input [N,C,H,W], weight [F,C,kh,kw], bias [F]
/// (pass an empty tensor to skip bias). Returns [N,F,outH,outW], byte for
/// byte what Im2Col times the [F, C*kh*kw] weight matrix on Sgemm, plus
/// the bias, returns; computed directly from the input rows.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec);

/// \brief Gradients of Conv2dForward w.r.t. input, weight and bias.
/// Any of the output pointers may be null to skip that gradient.
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias);

/// \brief Global average pool: [N,C,H,W] -> [N,C,1,1].
Tensor GlobalAvgPoolForward(const Tensor& input);
/// \brief Backward of global average pool.
Tensor GlobalAvgPoolBackward(const Tensor& input, const Tensor& grad_output);

/// \brief Nearest-neighbour upsample by integer factor: H,W -> H*f, W*f.
Tensor UpsampleNearestForward(const Tensor& input, int64_t factor);
/// \brief Backward of nearest upsample (sums gradients over each block).
Tensor UpsampleNearestBackward(const Tensor& grad_output, int64_t factor);

/// \brief Concatenates NCHW tensors along the channel axis.
Tensor ConcatChannels(const std::vector<const Tensor*>& inputs);
/// \brief Splits a channel-axis gradient back into per-input gradients.
std::vector<Tensor> SplitChannels(const Tensor& grad_output,
                                  const std::vector<int64_t>& channel_counts);

/// \brief Row-wise softmax over the last axis of a 2-D tensor.
Tensor SoftmaxRows(const Tensor& logits);
/// \brief Backward of SoftmaxRows given the forward output.
Tensor SoftmaxRowsBackward(const Tensor& softmax_out,
                           const Tensor& grad_output);

/// \brief Scalar reference implementations of the compute-bound kernels.
///
/// These are the seed's original triple-loop kernels, kept verbatim as
/// the correctness oracle: parity tests pin the optimized paths to them
/// within 1e-4, and bench_kernels reports speedup against them.
namespace naive {

Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec);
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias);

}  // namespace naive

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_KERNELS_H_
