#include "model/one4all_net.h"

#include <sstream>
#include <utility>

namespace one4all {

One4AllNet::One4AllNet(const Hierarchy& hierarchy,
                       const TemporalFeatureSpec& spec,
                       const One4AllNetOptions& options)
    : options_(options), n_layers_(hierarchy.num_layers()) {
  Rng rng(options.seed);
  const int64_t d = options.channels;
  O4A_CHECK_GT(d, 0);

  for (int l = 1; l <= n_layers_; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    layer_heights_.push_back(info.height);
    layer_widths_.push_back(info.width);
    layer_scales_.push_back(info.scale);
    if (l >= 2) windows_.push_back(info.window);
  }

  conv_closeness_ = RegisterModule(
      "conv_closeness",
      std::make_unique<Conv2d>(spec.closeness_len, d, 3, 1, 1, true, &rng));
  conv_period_ = RegisterModule(
      "conv_period",
      std::make_unique<Conv2d>(spec.period_len, d, 3, 1, 1, true, &rng));
  conv_trend_ = RegisterModule(
      "conv_trend",
      std::make_unique<Conv2d>(spec.trend_len, d, 3, 1, 1, true, &rng));
  fuse_ = RegisterModule(
      "fuse", std::make_unique<Conv2d>(3 * d, d, 1, 1, 0, true, &rng));

  block_l1_ = RegisterModule(
      "block_l1", MakeSpatialBlock(options.block, d, &rng));

  for (int l = 2; l <= n_layers_; ++l) {
    std::ostringstream name;
    if (options_.hierarchical_spatial_modeling) {
      // Merge from the previous layer with a K x K strided conv (Sec.
      // IV-B2: Merge(.) = Conv(.)).
      const int64_t k = windows_[static_cast<size_t>(l - 2)];
      name << "merge_l" << l;
      merges_.push_back(RegisterModule(
          name.str(), std::make_unique<Conv2d>(d, d, k, k, 0, true, &rng)));
    } else {
      // w/o HSM ablation: every scale learns from the atomic features
      // directly with a stride-xi_l conv (from scratch, no sharing).
      const int64_t xi = layer_scales_[static_cast<size_t>(l - 1)];
      name << "merge_scratch_l" << l;
      merges_.push_back(RegisterModule(
          name.str(),
          std::make_unique<Conv2d>(d, d, xi, xi, 0, true, &rng)));
    }
    std::ostringstream bname;
    bname << "block_l" << l;
    blocks_.push_back(RegisterModule(
        bname.str(), MakeSpatialBlock(options.block, d, &rng)));
  }

  for (int l = 1; l <= n_layers_; ++l) {
    std::ostringstream hname, oname;
    hname << "head_hidden_l" << l;
    oname << "head_out_l" << l;
    head_hidden_.push_back(RegisterModule(
        hname.str(), std::make_unique<Conv2d>(d, d, 1, 1, 0, true, &rng)));
    head_out_.push_back(RegisterModule(
        oname.str(), std::make_unique<Conv2d>(d, 1, 1, 1, 0, true, &rng)));
  }
}

std::vector<Variable> One4AllNet::Forward(const TemporalInput& input) const {
  // Temporal modeling (Eq. 7).
  Variable xc(input.closeness);
  Variable xp(input.period);
  Variable xt(input.trend);
  Variable h1 = Relu(fuse_->Forward(ConcatChannelsVar(
      {conv_closeness_->Forward(xc), conv_period_->Forward(xp),
       conv_trend_->Forward(xt)})));
  h1 = block_l1_->Forward(h1);

  // Bottom-up hierarchical spatial modeling (Eq. 8).
  std::vector<Variable> h(static_cast<size_t>(n_layers_));
  h[0] = h1;
  for (int l = 2; l <= n_layers_; ++l) {
    const size_t i = static_cast<size_t>(l - 1);
    Variable source =
        options_.hierarchical_spatial_modeling ? h[i - 1] : h1;
    // Ceil-divided layers need the strided conv to see a zero-padded
    // multiple of its stride (the paper pads the raster for its 3x3
    // variant the same way).
    const int64_t stride = options_.hierarchical_spatial_modeling
                               ? windows_[i - 1]
                               : layer_scales_[i];
    const int64_t src_h = source.value().dim(2);
    const int64_t src_w = source.value().dim(3);
    const int64_t pad_h = (src_h + stride - 1) / stride * stride;
    const int64_t pad_w = (src_w + stride - 1) / stride * stride;
    source = Pad2dVar(source, pad_h, pad_w);
    Variable merged = merges_[i - 1]->Forward(source);
    O4A_CHECK_EQ(merged.value().dim(2), layer_heights_[i]);
    O4A_CHECK_EQ(merged.value().dim(3), layer_widths_[i]);
    h[i] = blocks_[i - 1]->Forward(merged);
  }

  // Top-down cross-scale enhancement (Eq. 9), coarsest to finest.
  std::vector<Variable> enhanced = h;
  if (options_.cross_scale) {
    for (int l = n_layers_ - 1; l >= 1; --l) {
      const size_t i = static_cast<size_t>(l - 1);
      const int64_t k = windows_[i];  // window that merged l into l+1
      Variable up = UpsampleNearestVar(enhanced[i + 1], k);
      up = Crop2dVar(up, layer_heights_[i], layer_widths_[i]);
      enhanced[i] = Add(h[i], std::move(up));
    }
  }

  // Scale-specific heads (Eq. 10).
  std::vector<Variable> preds;
  preds.reserve(static_cast<size_t>(n_layers_));
  for (int l = 1; l <= n_layers_; ++l) {
    const size_t i = static_cast<size_t>(l - 1);
    Variable hidden = Relu(head_hidden_[i]->Forward(enhanced[i]));
    preds.push_back(head_out_[i]->Forward(hidden));
  }
  return preds;
}

Variable One4AllNet::Loss(const STDataset& dataset,
                          const std::vector<int64_t>& batch) const {
  const TemporalInput input = dataset.BuildInput(batch);
  const std::vector<Variable> preds = Forward(input);
  Variable total;
  for (int l = 1; l <= n_layers_; ++l) {
    const Tensor target = dataset.BuildTarget(batch, l, StatsLayerFor(l));
    Variable term = MseLoss(preds[static_cast<size_t>(l - 1)], target);
    total = total.defined() ? Add(total, term) : term;
  }
  return total;
}

std::string One4AllNet::Name() const {
  std::string name = "One4All-ST";
  if (!options_.hierarchical_spatial_modeling) name += " (w/o HSM)";
  if (!options_.scale_normalization) name += " (w/o SN)";
  if (!options_.cross_scale) name += " (w/o CSM)";
  if (options_.block != SpatialBlockType::kSE) {
    name += std::string(" [") + SpatialBlockTypeName(options_.block) + "]";
  }
  return name;
}

std::vector<int> One4AllNet::NativeLayers(const STDataset& dataset) const {
  std::vector<int> layers;
  for (int l = 1; l <= dataset.hierarchy().num_layers(); ++l) {
    layers.push_back(l);
  }
  return layers;
}

Tensor One4AllNet::PredictLayer(const STDataset& dataset,
                                const std::vector<int64_t>& timesteps,
                                int layer) {
  O4A_CHECK(layer >= 1 && layer <= n_layers_);
  const NoTapeScope no_tape;
  const TemporalInput input = dataset.BuildInput(timesteps);
  const std::vector<Variable> preds = Forward(input);
  const Tensor& normalized = preds[static_cast<size_t>(layer - 1)].value();
  return dataset.DenormalizeLayer(normalized, StatsLayerFor(layer));
}

std::vector<Tensor> One4AllNet::InferServingFrames(
    const TemporalInput& input, const STDataset& dataset) const {
  O4A_CHECK_EQ(input.closeness.dim(0), 1);
  const NoTapeScope no_tape;
  const std::vector<Variable> preds = Forward(input);
  std::vector<Tensor> frames;
  frames.reserve(static_cast<size_t>(n_layers_));
  for (int l = 1; l <= n_layers_; ++l) {
    const size_t i = static_cast<size_t>(l - 1);
    const Tensor denorm = dataset.DenormalizeLayer(preds[i].value(),
                                                   StatsLayerFor(l));
    frames.push_back(denorm.Reshape({layer_heights_[i], layer_widths_[i]}));
  }
  return frames;
}

std::vector<Tensor> One4AllNet::PredictAllLayers(
    const STDataset& dataset, const std::vector<int64_t>& timesteps) {
  const NoTapeScope no_tape;
  const TemporalInput input = dataset.BuildInput(timesteps);
  const std::vector<Variable> preds = Forward(input);
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(n_layers_));
  for (int l = 1; l <= n_layers_; ++l) {
    out.push_back(dataset.DenormalizeLayer(
        preds[static_cast<size_t>(l - 1)].value(), StatsLayerFor(l)));
  }
  return out;
}

}  // namespace one4all
