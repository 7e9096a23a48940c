// Shared helpers for the One4All-ST test suite: tiny deterministic
// datasets, finite-difference gradient checking, and an oracle predictor
// with controllable per-layer noise.
#ifndef ONE4ALL_TESTS_TEST_UTIL_H_
#define ONE4ALL_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "kvstore/prediction_store.h"
#include "model/predictor.h"
#include "query/query_executor.h"
#include "query/query_server.h"
#include "query/topk_memo.h"
#include "tensor/autograd.h"

namespace one4all {
namespace testing {

/// \brief Small temporal spec so tiny datasets have full history windows.
inline TemporalFeatureSpec TinySpec() {
  TemporalFeatureSpec spec;
  spec.closeness_len = 2;
  spec.period_len = 2;
  spec.trend_len = 1;
  spec.daily_interval = 8;
  spec.weekly_interval = 16;
  return spec;
}

/// \brief 8x8 raster, P={1,2,4}, ~10 "days" of 8-slot data.
inline STDataset TinyDataset(uint64_t seed = 7, int64_t h = 8, int64_t w = 8,
                             int64_t timesteps = 96) {
  SyntheticDataOptions options;
  options.height = h;
  options.width = w;
  options.num_timesteps = timesteps;
  options.steps_per_day = 8;
  options.num_hotspots = 3;
  options.background_rate = 0.5;
  options.hotspot_peak = 8.0;
  options.hotspot_sigma_cells = 2.0;
  options.seed = seed;
  auto flows = GenerateSyntheticFlows(options);
  EXPECT_TRUE(flows.ok()) << flows.status().ToString();
  Hierarchy hierarchy = Hierarchy::Uniform(h, w, 2, 4);
  auto dataset =
      STDataset::Create(flows.MoveValueUnsafe(), hierarchy, TinySpec());
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return dataset.MoveValueUnsafe();
}

/// \brief Central finite-difference gradient check.
///
/// `loss_fn` rebuilds the forward pass and returns the scalar loss value;
/// it must read the parameter values through the Variables each call.
/// Checks `num_probes` coordinates of each parameter.
inline void CheckGradients(const std::function<Variable()>& loss_builder,
                           std::vector<Variable> params,
                           float eps = 1e-3f, float tol = 2e-2f,
                           int num_probes = 4) {
  // Analytic gradients.
  for (Variable& p : params) p.ZeroGrad();
  Variable loss = loss_builder();
  loss.Backward();
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (const Variable& p : params) analytic.push_back(p.grad());

  Rng rng(123);
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& value = params[pi].mutable_value();
    const int64_t n = value.numel();
    for (int probe = 0; probe < num_probes; ++probe) {
      const int64_t i = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(n)));
      const float saved = value[i];
      value[i] = saved + eps;
      const float up = loss_builder().value()[0];
      value[i] = saved - eps;
      const float down = loss_builder().value()[0];
      value[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float exact = analytic[pi][i];
      const float denom = std::max(1.0f, std::abs(numeric) + std::abs(exact));
      EXPECT_NEAR(exact / denom, numeric / denom, tol)
          << "param " << pi << " coord " << i << " analytic=" << exact
          << " numeric=" << numeric;
    }
  }
}

/// \brief Predictor returning ground truth plus per-layer Gaussian noise —
/// lets tests steer which scales the combination search should prefer.
class OraclePredictor : public FlowPredictor {
 public:
  /// \param noise_per_layer Standard deviation of additive noise at each
  /// layer (index 0 = layer 1). Missing entries default to 0.
  OraclePredictor(std::vector<double> noise_per_layer = {},
                  uint64_t seed = 9)
      : noise_(std::move(noise_per_layer)), rng_(seed) {}

  std::string Name() const override { return "Oracle"; }

  std::vector<int> NativeLayers(const STDataset& dataset) const override {
    std::vector<int> layers;
    for (int l = 1; l <= dataset.hierarchy().num_layers(); ++l) {
      layers.push_back(l);
    }
    return layers;
  }

  Tensor PredictLayer(const STDataset& dataset,
                      const std::vector<int64_t>& timesteps,
                      int layer) override {
    const LayerInfo& info = dataset.hierarchy().layer(layer);
    const int64_t n = static_cast<int64_t>(timesteps.size());
    Tensor out({n, 1, info.height, info.width});
    const double sigma =
        static_cast<size_t>(layer - 1) < noise_.size()
            ? noise_[static_cast<size_t>(layer - 1)]
            : 0.0;
    for (int64_t s = 0; s < n; ++s) {
      const Tensor& f =
          dataset.FrameAtLayer(timesteps[static_cast<size_t>(s)], layer);
      float* dst = out.data() + s * info.height * info.width;
      for (int64_t i = 0; i < info.height * info.width; ++i) {
        dst[i] = f[i] + (sigma > 0.0
                             ? static_cast<float>(rng_.Normal(0.0, sigma))
                             : 0.0f);
      }
    }
    return out;
  }

 private:
  std::vector<double> noise_;
  Rng rng_;
};

/// \brief Contiguous [h, w] copy of the stored frame (generation, layer,
/// t): the store only hands out pinned tiled frames, so tests that
/// compare whole frames pin one and materialize it. Keeps the store's
/// NotFound status when the frame is missing.
inline Result<Tensor> MaterializedFrameAt(const PredictionStore& store,
                                          int64_t generation, int layer,
                                          int64_t t) {
  Result<std::shared_ptr<const TiledFrame>> frame =
      store.GetTiledFrameAt(generation, layer, t);
  if (!frame.ok()) return frame.status();
  return (*frame)->Materialize();
}

/// \brief `frame` as a store keeps it: every cell through Snap.
inline Tensor Snapped(const Tensor& frame) {
  Tensor out = frame;
  for (int64_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = Snap(out.data()[i]);
  }
  return out;
}

/// \brief Row-by-row bit-exact comparison of two answers to one spec —
/// an answer against ReferenceResult, across shard counts, or a
/// memo-served answer against a cold one:
/// per-row status (code and message), value, series and term/piece
/// counts, and the top-k ranking.
inline void ExpectBitExactRows(const QueryResult& expected,
                               const QueryResult& actual,
                               const std::string& what) {
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << what;
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    ASSERT_EQ(expected.rows[i].ok(), actual.rows[i].ok())
        << what << " row " << i;
    if (!expected.rows[i].ok()) {
      // A failing row reports its first unreadable timestep, so the
      // same status.
      EXPECT_EQ(expected.rows[i].status().code(),
                actual.rows[i].status().code())
          << what << " row " << i;
      EXPECT_EQ(expected.rows[i].status().message(),
                actual.rows[i].status().message())
          << what << " row " << i;
      continue;
    }
    // Bit-exact, not approximately equal: stored cells are multiples of
    // 2^-20, so no sum rounds and every path's doubles are identical.
    EXPECT_EQ(expected.rows[i]->value, actual.rows[i]->value)
        << what << " row " << i;
    ASSERT_EQ(expected.rows[i]->series.size(),
              actual.rows[i]->series.size())
        << what << " row " << i;
    for (size_t s = 0; s < expected.rows[i]->series.size(); ++s) {
      EXPECT_EQ(expected.rows[i]->series[s], actual.rows[i]->series[s])
          << what << " row " << i << " step " << s;
    }
    EXPECT_EQ(expected.rows[i]->num_terms, actual.rows[i]->num_terms)
        << what << " row " << i;
    EXPECT_EQ(expected.rows[i]->num_pieces, actual.rows[i]->num_pieces)
        << what << " row " << i;
  }
  EXPECT_EQ(expected.top_k, actual.top_k) << what;
}

/// \brief The reference answer to `spec`: each region resolved by
/// `server`, its terms summed at every timestep by TryEvaluateTerms over
/// `server`'s one store (at `generation`), the series folded left to
/// right and, for top-k, ranked by TopKMemo::RankRows. A row fails with
/// the status of its first unreadable timestep. Every gather path is
/// checked against this with ExpectBitExactRows.
inline QueryResult ReferenceResult(const RegionQueryServer& server,
                                   const QuerySpec& spec,
                                   int64_t generation = 0) {
  QueryResult reference;
  reference.kind = spec.kind;
  const bool keep_series = spec.keep_series && !spec.time.IsPoint();
  for (const GridMask& region : spec.regions) {
    Result<ResolvedQuery> resolved = server.Resolve(region, spec.strategy);
    if (!resolved.ok()) {
      reference.rows.push_back(resolved.status());
      continue;
    }
    std::vector<double> series;
    Status status;
    for (int64_t t = spec.time.t0; t <= spec.time.t1; ++t) {
      Result<double> value =
          server.TryEvaluateTerms(resolved->terms, t, generation);
      if (!value.ok()) {
        status = value.status();
        break;
      }
      series.push_back(*value);
    }
    if (!status.ok()) {
      reference.rows.push_back(status);
      continue;
    }
    QueryRow row;
    row.value = series.front();
    if (spec.aggregation == TimeAggregation::kMax) {
      for (const double v : series) row.value = std::max(row.value, v);
    } else {
      row.value = 0.0;
      for (const double v : series) row.value += v;
      if (spec.aggregation == TimeAggregation::kMean) {
        row.value /= static_cast<double>(series.size());
      }
    }
    if (keep_series) row.series = series;
    row.num_pieces = resolved->num_pieces;
    row.num_terms = static_cast<int>(resolved->terms.size());
    reference.rows.push_back(std::move(row));
  }
  if (spec.kind == QuerySpecKind::kTopK) {
    reference.top_k = TopKMemo::RankRows(reference.rows, spec.top_k);
  }
  return reference;
}

/// \brief A one-store copy of the served frames: every layer of every
/// timestep in [t0, t1] from `frame_at(t, layer)`, staged without
/// planes — the store ReferenceResult reads.
template <typename FrameAt>
std::unique_ptr<PredictionStore> OneStoreCopy(int num_layers, int64_t t0,
                                              int64_t t1,
                                              const FrameAt& frame_at) {
  auto store = std::make_unique<PredictionStore>();
  for (int l = 1; l <= num_layers; ++l) {
    for (int64_t t = t0; t <= t1; ++t) {
      O4A_CHECK(store->TrySyncFrameAt(0, l, t, frame_at(t, l)).ok());
    }
  }
  return store;
}

/// \brief Deterministic pseudo-random mask with `fill_per_mille` density.
inline GridMask RandomMask(int64_t h, int64_t w, uint64_t seed,
                           int fill_per_mille = 400) {
  Rng rng(seed);
  GridMask mask(h, w);
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      if (rng.UniformInt(1000) < static_cast<uint64_t>(fill_per_mille)) {
        mask.Set(r, c, true);
      }
    }
  }
  return mask;
}

}  // namespace testing
}  // namespace one4all

#endif  // ONE4ALL_TESTS_TEST_UTIL_H_
