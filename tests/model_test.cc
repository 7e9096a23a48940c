// Unit + integration tests for src/model: One4All-ST network, baselines,
// trainer, and predictor semantics on a tiny dataset.
#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

#include "model/baselines_cnn.h"
#include "model/baselines_graph.h"
#include "model/baselines_simple.h"
#include "model/multi_model.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "tensor/autograd.h"
#include "test_util.h"

namespace one4all {
namespace {

One4AllNetOptions SmallNetOptions() {
  One4AllNetOptions options;
  options.channels = 4;
  options.seed = 3;
  return options;
}

TEST(One4AllNetTest, ForwardEmitsEveryScale) {
  STDataset ds = testing::TinyDataset();
  One4AllNet net(ds.hierarchy(), ds.spec(), SmallNetOptions());
  const TemporalInput input = ds.BuildInput({ds.test_indices()[0],
                                             ds.test_indices()[1]});
  const auto preds = net.Forward(input);
  ASSERT_EQ(preds.size(), 3u);  // P = {1,2,4}
  EXPECT_EQ(preds[0].value().shape(), (std::vector<int64_t>{2, 1, 8, 8}));
  EXPECT_EQ(preds[1].value().shape(), (std::vector<int64_t>{2, 1, 4, 4}));
  EXPECT_EQ(preds[2].value().shape(), (std::vector<int64_t>{2, 1, 2, 2}));
}

TEST(One4AllNetTest, AblationVariantsKeepShapes) {
  STDataset ds = testing::TinyDataset();
  for (bool hsm : {true, false}) {
    for (bool csm : {true, false}) {
      One4AllNetOptions options = SmallNetOptions();
      options.hierarchical_spatial_modeling = hsm;
      options.cross_scale = csm;
      One4AllNet net(ds.hierarchy(), ds.spec(), options);
      const auto preds =
          net.Forward(ds.BuildInput({ds.test_indices()[0]}));
      EXPECT_EQ(preds.size(), 3u);
      EXPECT_EQ(preds[2].value().dim(2), 2);
    }
  }
}

TEST(One4AllNetTest, WithoutHsmUsesMoreMergeParameters) {
  STDataset ds = testing::TinyDataset();
  One4AllNetOptions with = SmallNetOptions();
  One4AllNetOptions without = SmallNetOptions();
  without.hierarchical_spatial_modeling = false;
  One4AllNet a(ds.hierarchy(), ds.spec(), with);
  One4AllNet b(ds.hierarchy(), ds.spec(), without);
  // From-scratch merging needs kernels of size xi_l (4x4 at layer 3)
  // instead of stacked 2x2 merges -> strictly more parameters.
  EXPECT_GT(b.NumParameters(), a.NumParameters());
}

TEST(One4AllNetTest, NameReflectsAblations) {
  STDataset ds = testing::TinyDataset();
  One4AllNetOptions options = SmallNetOptions();
  options.scale_normalization = false;
  One4AllNet net(ds.hierarchy(), ds.spec(), options);
  EXPECT_NE(net.Name().find("w/o SN"), std::string::npos);
}

TEST(One4AllNetTest, TrainingReducesLoss) {
  STDataset ds = testing::TinyDataset();
  One4AllNet net(ds.hierarchy(), ds.spec(), SmallNetOptions());
  TrainOptions options;
  options.epochs = 4;
  options.batch_size = 8;
  options.learning_rate = 3e-3f;
  options.max_batches_per_epoch = 6;
  const TrainReport report = TrainModel(
      &net, ds,
      [&net](const STDataset& d, const std::vector<int64_t>& batch) {
        return net.Loss(d, batch);
      },
      options);
  ASSERT_EQ(report.train_losses.size(), 4u);
  EXPECT_LT(report.train_losses.back(), report.train_losses.front());
  EXPECT_GT(report.seconds_per_epoch, 0.0);
}

// Pins the exact bytes the serving path publishes: the convolution,
// activation and upsample kernels may change how they compute, never what.
// The trainer gets a fixed two-worker pool, so the batch-parallel backward
// reduces the same chunks on every host.
TEST(One4AllNetTest, ServingFramesFingerprintIsStable) {
  STDataset ds = testing::TinyDataset(7, 16, 16);
  One4AllNetOptions net_options = SmallNetOptions();
  net_options.channels = 8;
  One4AllNet net(ds.hierarchy(), ds.spec(), net_options);
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 4;
  options.max_batches_per_epoch = 1;
  options.num_threads = 2;
  TrainModel(
      &net, ds,
      [&net](const STDataset& d, const std::vector<int64_t>& batch) {
        return net.Loss(d, batch);
      },
      options);

  const std::vector<Tensor> frames =
      net.InferServingFrames(ds.BuildInput({ds.test_indices()[0]}), ds);
  ASSERT_EQ(frames.size(), 3u);
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (const Tensor& frame : frames) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
    for (size_t i = 0; i < frame.numel() * sizeof(float); ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  }
  // Recorded when Conv2dForward still ran Im2Col + Sgemm. A build that
  // targets an FMA CPU (ONE4ALL_NATIVE_ARCH) lets the compiler fuse
  // a * b + c everywhere, which changes the bits before any kernel runs.
#if defined(__FMA__)
  EXPECT_EQ(hash, 15817845565653601071ull);
#else
  EXPECT_EQ(hash, 0x7f756cb8ce00d334ull);
#endif
}

// Serving inference, offline prediction and validation loss run with no
// tape: not one taped node, and the same bits the taped forward yields.
TEST(One4AllNetTest, ForwardOnlyPassesRecordNoTape) {
  STDataset ds = testing::TinyDataset();
  One4AllNet net(ds.hierarchy(), ds.spec(), SmallNetOptions());
  const std::vector<int64_t> batch = {ds.test_indices()[0],
                                      ds.test_indices()[2]};
  auto loss_fn = [&net](const STDataset& d, const std::vector<int64_t>& b) {
    return net.Loss(d, b);
  };

  int64_t before = TapedNodeCount();
  const std::vector<Tensor> frames =
      net.InferServingFrames(ds.BuildInput({batch[0]}), ds);
  EXPECT_EQ(TapedNodeCount() - before, 0);
  before = TapedNodeCount();
  const std::vector<Tensor> all = net.PredictAllLayers(ds, batch);
  const Tensor layer2 = net.PredictLayer(ds, batch, 2);
  const float val_loss = EvaluateLoss(ds, loss_fn, batch, 2);
  EXPECT_EQ(TapedNodeCount() - before, 0);

  // The taped forward the trainer runs builds its graph and agrees.
  before = TapedNodeCount();
  const Variable loss = net.Loss(ds, batch);
  EXPECT_GT(TapedNodeCount() - before, 0);
  EXPECT_EQ(loss.value()[0], val_loss);
  const std::vector<Variable> preds = net.Forward(ds.BuildInput(batch));
  const Tensor layer2_taped = ds.DenormalizeLayer(preds[1].value(), 2);
  ASSERT_EQ(layer2.shape(), layer2_taped.shape());
  ASSERT_EQ(all[1].shape(), layer2_taped.shape());
  for (int64_t i = 0; i < layer2.numel(); ++i) {
    EXPECT_EQ(layer2[i], layer2_taped[i]);
    EXPECT_EQ(all[1][i], layer2_taped[i]);
  }
  const int64_t plane = frames[1].numel();
  for (int64_t i = 0; i < plane; ++i) EXPECT_EQ(frames[1][i], layer2_taped[i]);
}

// A forward-only pass between two training steps leaves the gradients
// the second step computes bit for bit where they would have been.
TEST(One4AllNetTest, InferenceBetweenBackwardsLeavesGradientsUnchanged) {
  STDataset ds = testing::TinyDataset();
  One4AllNet net(ds.hierarchy(), ds.spec(), SmallNetOptions());
  const std::vector<int64_t> batch = {ds.train_indices()[0],
                                      ds.train_indices()[1]};
  auto grads_of_one_step = [&] {
    net.ZeroGrad();
    net.Loss(ds, batch).Backward();
    std::vector<Tensor> grads;
    for (const Variable& p : net.Parameters()) grads.push_back(p.grad());
    return grads;
  };
  const std::vector<Tensor> first = grads_of_one_step();
  net.InferServingFrames(ds.BuildInput({ds.test_indices()[0]}), ds);
  const std::vector<Tensor> second = grads_of_one_step();
  ASSERT_EQ(first.size(), second.size());
  for (size_t p = 0; p < first.size(); ++p) {
    ASSERT_EQ(first[p].shape(), second[p].shape());
    EXPECT_EQ(std::memcmp(first[p].data(), second[p].data(),
                          sizeof(float) * first[p].numel()),
              0)
        << "parameter " << p;
  }
}

TEST(One4AllNetTest, PredictAllLayersMatchesPredictLayer) {
  STDataset ds = testing::TinyDataset();
  One4AllNet net(ds.hierarchy(), ds.spec(), SmallNetOptions());
  std::vector<int64_t> ts = {ds.test_indices()[0], ds.test_indices()[3]};
  const auto all = net.PredictAllLayers(ds, ts);
  for (int l = 1; l <= 3; ++l) {
    EXPECT_TRUE(all[static_cast<size_t>(l - 1)].AllClose(
        net.PredictLayer(ds, ts, l), 1e-4f));
  }
}

TEST(HistoryMeanTest, PredictsMeanOfSelectedRecords) {
  STDataset ds = testing::TinyDataset();
  HistoryMeanPredictor hm(1, 1, 1);
  const int64_t t = ds.test_indices()[0];
  const Tensor pred = hm.PredictLayer(ds, {t}, 1);
  const TemporalFeatureSpec& spec = ds.spec();
  const float expected = (ds.FrameAtLayer(t - 1, 1).at(2, 2) +
                          ds.FrameAtLayer(t - spec.daily_interval, 1).at(2, 2) +
                          ds.FrameAtLayer(t - spec.weekly_interval, 1).at(2, 2)) /
                         3.0f;
  EXPECT_NEAR(pred.at(0, 0, 2, 2), expected, 1e-4f);
}

TEST(HistoryMeanTest, NativeAtEveryLayer) {
  STDataset ds = testing::TinyDataset();
  HistoryMeanPredictor hm;
  EXPECT_EQ(hm.NativeLayers(ds).size(), 3u);
  const Tensor coarse = hm.PredictLayer(ds, {ds.test_indices()[0]}, 3);
  EXPECT_EQ(coarse.dim(2), 2);
}

TEST(GbrtTest, FitsAndBeatsGlobalMean) {
  STDataset ds = testing::TinyDataset();
  GbrtOptions options;
  options.num_trees = 12;
  options.max_rows = 4000;
  GbrtPredictor gbrt(options);
  gbrt.Fit(ds);
  EXPECT_EQ(gbrt.num_trees(), 12);

  // Compare squared error against predicting the global mean everywhere.
  double gbrt_sse = 0.0, mean_sse = 0.0;
  const ScaleStats& s1 = ds.StatsOfLayer(1);
  for (int64_t t : ds.test_indices()) {
    const Tensor pred = gbrt.PredictLayer(ds, {t}, 1);
    const Tensor& truth = ds.FrameAtLayer(t, 1);
    for (int64_t i = 0; i < truth.numel(); ++i) {
      gbrt_sse += (pred[i] - truth[i]) * (pred[i] - truth[i]);
      mean_sse += (s1.mean - truth[i]) * (s1.mean - truth[i]);
    }
  }
  EXPECT_LT(gbrt_sse, mean_sse * 0.8);
}

TEST(GbrtTest, CoarseLayersAreAggregates) {
  STDataset ds = testing::TinyDataset();
  GbrtOptions options;
  options.num_trees = 4;
  options.max_rows = 1000;
  GbrtPredictor gbrt(options);
  gbrt.Fit(ds);
  std::vector<int64_t> ts = {ds.test_indices()[0]};
  const Tensor atomic = gbrt.PredictLayer(ds, ts, 1);
  const Tensor coarse = gbrt.PredictLayer(ds, ts, 2);
  const Tensor expected = AggregatePrediction(ds, atomic, 2);
  EXPECT_TRUE(coarse.AllClose(expected, 1e-3f));
}

template <typename Net>
void ExpectSingleScaleContract(Net* net, const STDataset& ds) {
  std::vector<int64_t> ts = {ds.test_indices()[0], ds.test_indices()[1]};
  const Tensor atomic = net->PredictLayer(ds, ts, 1);
  EXPECT_EQ(atomic.shape(), (std::vector<int64_t>{2, 1, 8, 8}));
  const Tensor coarse = net->PredictLayer(ds, ts, 2);
  EXPECT_TRUE(coarse.AllClose(AggregatePrediction(ds, atomic, 2), 1e-2f));
  EXPECT_GT(net->NumParameters(), 0);
}

TEST(BaselineTest, StResNetContract) {
  STDataset ds = testing::TinyDataset();
  StResNetNet net(ds.spec(), 4, 2, 11);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, StrnContract) {
  STDataset ds = testing::TinyDataset();
  StrnNet net(ds.spec(), 4, 2, 12);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, StMetaContract) {
  STDataset ds = testing::TinyDataset();
  StMetaNet net(ds.spec(), 4, 13);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, GwnContract) {
  STDataset ds = testing::TinyDataset();
  GwnNet net(ds.hierarchy(), ds.spec(), 4, 4, 64, 14);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, StMgcnContract) {
  STDataset ds = testing::TinyDataset();
  StMgcnNet net(ds, 4, 64, 15);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, GmanContract) {
  STDataset ds = testing::TinyDataset();
  GmanNet net(ds.hierarchy(), ds.spec(), 4, 64, 16);
  ExpectSingleScaleContract(&net, ds);
}

TEST(BaselineTest, PoolFactorForRespectsBudget) {
  EXPECT_EQ(PoolFactorFor(8, 8, 64), 1);
  EXPECT_EQ(PoolFactorFor(32, 32, 256), 2);
  EXPECT_EQ(PoolFactorFor(128, 128, 1024), 4);
}

TEST(BaselineTest, SingleScaleTrainingReducesLoss) {
  STDataset ds = testing::TinyDataset();
  StResNetNet net(ds.spec(), 4, 2, 17);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 8;
  options.max_batches_per_epoch = 6;
  const TrainReport report = TrainModel(
      &net, ds,
      [&net](const STDataset& d, const std::vector<int64_t>& batch) {
        return net.Loss(d, batch);
      },
      options);
  EXPECT_LT(report.train_losses.back(), report.train_losses.front());
}

TEST(McStgcnTest, BiScaleOutputsAndLoss) {
  STDataset ds = testing::TinyDataset();
  McStgcnNet net(ds.hierarchy(), ds.spec(), 4, /*cluster_layer=*/2, 18);
  const TemporalInput input = ds.BuildInput({ds.test_indices()[0]});
  auto [fine, coarse] = net.Forward(input);
  EXPECT_EQ(fine.value().dim(2), 8);
  EXPECT_EQ(coarse.value().dim(2), 4);
  EXPECT_EQ(net.NativeLayers(ds), (std::vector<int>{1, 2}));
  // Loss is finite and differentiable.
  Variable loss = net.Loss(ds, {ds.train_indices()[0]});
  loss.Backward();
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
}

TEST(McStgcnTest, ClusterLayerIsNative) {
  STDataset ds = testing::TinyDataset();
  McStgcnNet net(ds.hierarchy(), ds.spec(), 4, 2, 19);
  std::vector<int64_t> ts = {ds.test_indices()[0]};
  const Tensor cluster = net.PredictLayer(ds, ts, 2);
  const Tensor atomic = net.PredictLayer(ds, ts, 1);
  // Cluster output is NOT the aggregation of the fine output (separate
  // heads) — that bi-scale disagreement is exactly the paper's MAUP
  // inconsistency motivation.
  EXPECT_FALSE(cluster.AllClose(AggregatePrediction(ds, atomic, 2), 1e-6f));
}

TEST(MultiModelTest, PerLayerModelsServeNatively) {
  STDataset ds = testing::TinyDataset();
  MultiModelPredictor multi(
      "M-ST-ResNet", ds,
      [&ds](int layer, uint64_t seed) {
        return std::make_unique<StResNetNet>(ds.spec(), 4, 1, seed, layer);
      },
      7);
  EXPECT_EQ(multi.num_models(), 3);
  EXPECT_EQ(multi.NativeLayers(ds).size(), 3u);
  std::vector<int64_t> ts = {ds.test_indices()[0]};
  for (int l = 1; l <= 3; ++l) {
    const Tensor pred = multi.PredictLayer(ds, ts, l);
    EXPECT_EQ(pred.dim(2), ds.hierarchy().layer(l).height);
  }
  // Parameter count is the sum over per-layer models (Table II's "x6").
  StResNetNet single(ds.spec(), 4, 1, 7, 1);
  EXPECT_EQ(multi.NumParameters(), 3 * single.NumParameters());
}

TEST(MultiModelTest, TrainAllRuns) {
  STDataset ds = testing::TinyDataset();
  MultiModelPredictor multi(
      "M-ST-ResNet", ds,
      [&ds](int layer, uint64_t seed) {
        return std::make_unique<StResNetNet>(ds.spec(), 4, 1, seed, layer);
      },
      8);
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  options.max_batches_per_epoch = 2;
  const TrainReport report = multi.TrainAll(ds, options);
  EXPECT_GT(report.seconds_per_epoch, 0.0);
}

TEST(TrainerTest, EvaluateLossIsFinite) {
  STDataset ds = testing::TinyDataset();
  StResNetNet net(ds.spec(), 4, 1, 20);
  const float loss = EvaluateLoss(
      ds,
      [&net](const STDataset& d, const std::vector<int64_t>& batch) {
        return net.Loss(d, batch);
      },
      ds.val_indices(), 8);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
}

TEST(PredictorTest, DefaultPredictAllLayersAgreesWithPerLayer) {
  STDataset ds = testing::TinyDataset();
  testing::OraclePredictor oracle;
  std::vector<int64_t> ts = {ds.test_indices()[0]};
  const auto all = oracle.PredictAllLayers(ds, ts);
  ASSERT_EQ(all.size(), 3u);
  for (int l = 1; l <= 3; ++l) {
    EXPECT_TRUE(all[static_cast<size_t>(l - 1)].AllClose(
        oracle.PredictLayer(ds, ts, l), 1e-5f));
  }
}

}  // namespace
}  // namespace one4all
