#include "nn/layers.h"

#include <utility>

namespace one4all {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool bias, Rng* rng)
    : out_channels_(out_channels) {
  O4A_CHECK_GT(in_channels, 0);
  O4A_CHECK_GT(out_channels, 0);
  O4A_CHECK_GT(kernel, 0);
  spec_.stride = stride;
  spec_.padding = padding;
  weight_ = RegisterParameter(
      "weight",
      init::HeNormal({out_channels, in_channels, kernel, kernel}, rng));
  if (bias) bias_ = RegisterParameter("bias", Tensor({out_channels}));
}

Variable Conv2d::Forward(const Variable& x) const {
  return Conv2dVar(x, weight_, bias_, spec_);
}

Linear::Linear(int64_t in_features, int64_t out_features, bool bias,
               Rng* rng) {
  O4A_CHECK_GT(in_features, 0);
  O4A_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", init::GlorotUniform({in_features, out_features}, rng));
  if (bias) bias_ = RegisterParameter("bias", Tensor({out_features}));
}

Variable Linear::Forward(const Variable& x) const {
  return LinearVar(x, weight_, bias_);
}

const char* SpatialBlockTypeName(SpatialBlockType type) {
  switch (type) {
    case SpatialBlockType::kConv: return "ConvBlock";
    case SpatialBlockType::kRes: return "ResBlock";
    case SpatialBlockType::kSE: return "SEBlock";
  }
  return "?";
}

ConvBlock::ConvBlock(int64_t channels, Rng* rng) {
  conv_ = RegisterModule(
      "conv", std::make_unique<Conv2d>(channels, channels, 3, 1, 1,
                                       /*bias=*/true, rng));
}

Variable ConvBlock::Forward(const Variable& x) const {
  return Relu(conv_->Forward(x));
}

ResBlock::ResBlock(int64_t channels, Rng* rng) {
  conv1_ = RegisterModule(
      "conv1", std::make_unique<Conv2d>(channels, channels, 3, 1, 1,
                                        /*bias=*/true, rng));
  conv2_ = RegisterModule(
      "conv2", std::make_unique<Conv2d>(channels, channels, 3, 1, 1,
                                        /*bias=*/true, rng));
}

Variable ResBlock::ResidualBranch(const Variable& x) const {
  return conv2_->Forward(Relu(conv1_->Forward(Relu(x))));
}

Variable ResBlock::Forward(const Variable& x) const {
  return Add(x, ResidualBranch(x));
}

SEBlock::SEBlock(int64_t channels, int64_t reduction, Rng* rng)
    : channels_(channels) {
  O4A_CHECK_GT(reduction, 0);
  const int64_t squeezed = std::max<int64_t>(1, channels / reduction);
  conv1_ = RegisterModule(
      "conv1", std::make_unique<Conv2d>(channels, channels, 3, 1, 1,
                                        /*bias=*/true, rng));
  conv2_ = RegisterModule(
      "conv2", std::make_unique<Conv2d>(channels, channels, 3, 1, 1,
                                        /*bias=*/true, rng));
  fc1_ = RegisterModule(
      "fc1", std::make_unique<Linear>(channels, squeezed, /*bias=*/true, rng));
  fc2_ = RegisterModule(
      "fc2", std::make_unique<Linear>(squeezed, channels, /*bias=*/true, rng));
}

Variable SEBlock::Forward(const Variable& x) const {
  const Variable u = conv2_->Forward(Relu(conv1_->Forward(Relu(x))));
  const int64_t n = u.value().dim(0);
  // Squeeze: global average pool, flatten to [N, C].
  Variable squeezed =
      ReshapeVar(GlobalAvgPoolVar(u), {n, channels_});
  // Excite: bottleneck MLP ending in a sigmoid gate.
  Variable gate = Sigmoid(fc2_->Forward(Relu(fc1_->Forward(squeezed))));
  Variable gated =
      MulChannelGate(u, ReshapeVar(gate, {n, channels_, 1, 1}));
  return Add(x, std::move(gated));
}

std::unique_ptr<SpatialBlock> MakeSpatialBlock(SpatialBlockType type,
                                               int64_t channels, Rng* rng) {
  switch (type) {
    case SpatialBlockType::kConv:
      return std::make_unique<ConvBlock>(channels, rng);
    case SpatialBlockType::kRes:
      return std::make_unique<ResBlock>(channels, rng);
    case SpatialBlockType::kSE:
      return std::make_unique<SEBlock>(channels, /*reduction=*/4, rng);
  }
  O4A_CHECK(false) << "unknown block type";
  return nullptr;
}

Mlp::Mlp(int64_t in_features, int64_t hidden, int64_t out_features,
         Rng* rng) {
  fc1_ = RegisterModule(
      "fc1", std::make_unique<Linear>(in_features, hidden, true, rng));
  fc2_ = RegisterModule(
      "fc2", std::make_unique<Linear>(hidden, out_features, true, rng));
}

Variable Mlp::Forward(const Variable& x) const {
  return fc2_->Forward(Relu(fc1_->Forward(x)));
}

}  // namespace one4all
