#include "combine/prediction_set.h"

#include <algorithm>

#include "tensor/autograd.h"

namespace one4all {

ScalePredictionSet ScalePredictionSet::FromPredictor(
    FlowPredictor* predictor, const STDataset& dataset,
    const std::vector<int64_t>& timesteps, int batch_size) {
  O4A_CHECK(predictor != nullptr);
  O4A_CHECK_GT(batch_size, 0);
  ScalePredictionSet set;
  set.timesteps_ = timesteps;
  const int n_layers = dataset.hierarchy().num_layers();
  const int64_t t_total = static_cast<int64_t>(timesteps.size());

  for (int l = 1; l <= n_layers; ++l) {
    const LayerInfo& info = dataset.hierarchy().layer(l);
    set.preds_.emplace_back(
        Tensor({t_total, info.height, info.width}));
    Tensor truths({t_total, info.height, info.width});
    const int64_t plane = info.height * info.width;
    for (int64_t i = 0; i < t_total; ++i) {
      const Tensor& f =
          dataset.FrameAtLayer(timesteps[static_cast<size_t>(i)], l);
      std::copy(f.data(), f.data() + plane, truths.data() + i * plane);
    }
    set.truths_.push_back(std::move(truths));
  }
  // One forward per batch serves every layer; the batches share one
  // buffer pool and record no tape.
  const NoTapeScope no_tape;
  for (int64_t off = 0; off < t_total; off += batch_size) {
    const int64_t end = std::min(t_total, off + batch_size);
    std::vector<int64_t> batch(timesteps.begin() + off,
                               timesteps.begin() + end);
    const std::vector<Tensor> layer_preds =
        predictor->PredictAllLayers(dataset, batch);
    for (int l = 1; l <= n_layers; ++l) {
      const Tensor& p = layer_preds[static_cast<size_t>(l - 1)];
      O4A_CHECK_EQ(p.dim(0), end - off);
      const int64_t plane = p.dim(2) * p.dim(3);
      std::copy(p.data(), p.data() + (end - off) * plane,
                set.preds_[static_cast<size_t>(l - 1)].data() + off * plane);
    }
  }
  return set;
}

float ScalePredictionSet::Prediction(int layer, int64_t i, int64_t row,
                                     int64_t col) const {
  const Tensor& p = preds_[static_cast<size_t>(layer - 1)];
  return p.data()[(i * p.dim(1) + row) * p.dim(2) + col];
}

float ScalePredictionSet::Truth(int layer, int64_t i, int64_t row,
                                int64_t col) const {
  const Tensor& t = truths_[static_cast<size_t>(layer - 1)];
  return t.data()[(i * t.dim(1) + row) * t.dim(2) + col];
}

std::vector<float> ScalePredictionSet::PredictionSeries(
    const GridId& id) const {
  std::vector<float> out(static_cast<size_t>(num_timesteps()));
  for (int64_t i = 0; i < num_timesteps(); ++i) {
    out[static_cast<size_t>(i)] = Prediction(id.layer, i, id.row, id.col);
  }
  return out;
}

std::vector<float> ScalePredictionSet::TruthSeries(const GridId& id) const {
  std::vector<float> out(static_cast<size_t>(num_timesteps()));
  for (int64_t i = 0; i < num_timesteps(); ++i) {
    out[static_cast<size_t>(i)] = Truth(id.layer, i, id.row, id.col);
  }
  return out;
}

double SeriesSse(const std::vector<float>& a, const std::vector<float>& b) {
  O4A_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace one4all
