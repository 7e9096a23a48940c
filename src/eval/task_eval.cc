#include "eval/task_eval.h"

#include <algorithm>

#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "eval/metrics.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"

namespace one4all {


std::vector<TaskSpec> PaperTasks(bool hexagon_task1) {
  // Mean areas follow Sec. V-A3 (150 m atomic cells): 0.3 / 0.6 / 1.3 /
  // 4.8 km^2 -> ~13 / 27 / 58 / 213 cells.
  std::vector<TaskSpec> tasks;
  tasks.push_back(TaskSpec{
      "Task 1", hexagon_task1 ? RegionStyle::kHexagon : RegionStyle::kVoronoi,
      13.0, 101});
  tasks.push_back(TaskSpec{"Task 2", RegionStyle::kRoadGrid, 27.0, 102});
  tasks.push_back(TaskSpec{"Task 3", RegionStyle::kRoadGrid, 58.0, 103});
  tasks.push_back(TaskSpec{"Task 4", RegionStyle::kRoadGrid, 213.0, 104});
  return tasks;
}

std::vector<GridMask> MakeTaskRegions(const STDataset& dataset,
                                      const TaskSpec& task) {
  RegionGeneratorOptions options;
  options.style = task.style;
  options.mean_cells = task.mean_cells;
  options.seed = task.seed;
  return GenerateRegions(dataset.hierarchy().atomic_height(),
                         dataset.hierarchy().atomic_width(), options);
}

double RegionTruth(const STDataset& dataset, const GridMask& region,
                   int64_t t) {
  return region.MaskedSum(dataset.FrameAtLayer(t, 1));
}

namespace {

// Evaluates a per-(region,t) prediction callback against region truth.
template <typename PredFn>
QueryEvalResult EvaluateWith(const STDataset& dataset,
                             const std::vector<GridMask>& regions,
                             const std::vector<int64_t>& timesteps,
                             const PredFn& pred_fn) {
  MetricAccumulator acc;
  for (size_t qi = 0; qi < regions.size(); ++qi) {
    for (size_t ti = 0; ti < timesteps.size(); ++ti) {
      const double predicted = pred_fn(qi, ti);
      const double truth =
          RegionTruth(dataset, regions[qi], timesteps[ti]);
      acc.Add(predicted, truth);
    }
  }
  QueryEvalResult result;
  result.rmse = acc.Rmse();
  result.mape = acc.Mape();
  result.mae = acc.Mae();
  result.num_queries = static_cast<int>(regions.size());
  return result;
}

}  // namespace

QueryEvalResult EvaluateAtomicAggregation(
    FlowPredictor* predictor, const STDataset& dataset,
    const std::vector<GridMask>& regions,
    const std::vector<int64_t>& timesteps) {
  ScopedComputePool scoped_pool(ResolveComputePool());
  // Predict the atomic raster once for all slots, then mask-sum.
  const int64_t t_total = static_cast<int64_t>(timesteps.size());
  const int64_t h = dataset.hierarchy().atomic_height();
  const int64_t w = dataset.hierarchy().atomic_width();
  Tensor atomic({t_total, h, w});
  constexpr int kBatch = 16;
  for (int64_t off = 0; off < t_total; off += kBatch) {
    const int64_t end = std::min(t_total, off + kBatch);
    std::vector<int64_t> batch(timesteps.begin() + off,
                               timesteps.begin() + end);
    const Tensor p = predictor->PredictLayer(dataset, batch, 1);
    std::copy(p.data(), p.data() + (end - off) * h * w,
              atomic.data() + off * h * w);
  }
  return EvaluateWith(
      dataset, regions, timesteps, [&](size_t qi, size_t ti) {
        Tensor frame({h, w});
        std::copy(atomic.data() + static_cast<int64_t>(ti) * h * w,
                  atomic.data() + (static_cast<int64_t>(ti) + 1) * h * w,
                  frame.data());
        return regions[qi].MaskedSum(frame);
      });
}

QueryEvalResult EvaluateClusterPlusAtomic(
    FlowPredictor* predictor, const STDataset& dataset, int cluster_layer,
    const std::vector<GridMask>& regions,
    const std::vector<int64_t>& timesteps) {
  ScopedComputePool scoped_pool(ResolveComputePool());
  const Hierarchy& hierarchy = dataset.hierarchy();
  const int64_t t_total = static_cast<int64_t>(timesteps.size());
  const int64_t h = hierarchy.atomic_height(), w = hierarchy.atomic_width();
  const LayerInfo& cinfo = hierarchy.layer(cluster_layer);

  Tensor atomic({t_total, h, w});
  Tensor cluster({t_total, cinfo.height, cinfo.width});
  constexpr int kBatch = 16;
  for (int64_t off = 0; off < t_total; off += kBatch) {
    const int64_t end = std::min(t_total, off + kBatch);
    std::vector<int64_t> batch(timesteps.begin() + off,
                               timesteps.begin() + end);
    const Tensor pa = predictor->PredictLayer(dataset, batch, 1);
    std::copy(pa.data(), pa.data() + (end - off) * h * w,
              atomic.data() + off * h * w);
    const Tensor pc = predictor->PredictLayer(dataset, batch, cluster_layer);
    std::copy(pc.data(),
              pc.data() + (end - off) * cinfo.height * cinfo.width,
              cluster.data() + off * cinfo.height * cinfo.width);
  }

  // Pre-resolve each region into cluster grids fully inside it plus the
  // complementary atomic cells.
  struct Resolution {
    std::vector<GridId> clusters;
    GridMask remainder;
  };
  std::vector<Resolution> resolutions;
  resolutions.reserve(regions.size());
  for (const GridMask& region : regions) {
    Resolution res;
    res.remainder = region;
    for (int64_t r = 0; r < cinfo.height; ++r) {
      for (int64_t c = 0; c < cinfo.width; ++c) {
        const GridId id{cluster_layer, r, c};
        if (hierarchy.GridInsideRegion(region, id)) {
          res.clusters.push_back(id);
          const CellRect rect = hierarchy.CellsOf(id);
          res.remainder.ClearRect(rect.r0, rect.c0, rect.r1, rect.c1);
        }
      }
    }
    resolutions.push_back(std::move(res));
  }

  return EvaluateWith(
      dataset, regions, timesteps, [&](size_t qi, size_t ti) {
        const Resolution& res = resolutions[qi];
        double value = 0.0;
        for (const GridId& id : res.clusters) {
          value += cluster.data()[(static_cast<int64_t>(ti) * cinfo.height +
                                   id.row) *
                                      cinfo.width +
                                  id.col];
        }
        Tensor frame({h, w});
        std::copy(atomic.data() + static_cast<int64_t>(ti) * h * w,
                  atomic.data() + (static_cast<int64_t>(ti) + 1) * h * w,
                  frame.data());
        value += res.remainder.MaskedSum(frame);
        return value;
      });
}

std::unique_ptr<MauPipeline> MauPipeline::Build(FlowPredictor* predictor,
                                                const STDataset& dataset,
                                                const SearchOptions& options,
                                                ThreadPool* pool) {
  // Both bulk prediction passes below (validation scoring + test ingest)
  // run the predictor's kernels over the compute pool, with no tape, on
  // one buffer pool that is freed when the build returns.
  ScopedComputePool scoped_pool(ResolveComputePool(pool));
  const NoTapeScope no_tape;
  auto pipeline = std::unique_ptr<MauPipeline>(new MauPipeline());
  pipeline->dataset_ = &dataset;
  pipeline->test_ = dataset.test_indices();

  // Offline: score combinations on the validation split.
  const ScalePredictionSet val_preds = ScalePredictionSet::FromPredictor(
      predictor, dataset, dataset.val_indices());
  Stopwatch search_timer;
  pipeline->search_ =
      SearchOptimalCombinations(dataset.hierarchy(), val_preds, options);
  pipeline->search_seconds_ = search_timer.ElapsedSeconds();
  pipeline->index_ =
      ExtendedQuadTree::Build(dataset.hierarchy(), pipeline->search_);

  // Online: sync test predictions for every layer into the KV store;
  // each write stores the frame with its summed-area plane.
  constexpr int kBatch = 16;
  const int64_t t_total = static_cast<int64_t>(pipeline->test_.size());
  for (int64_t off = 0; off < t_total; off += kBatch) {
    const int64_t end = std::min(t_total, off + kBatch);
    std::vector<int64_t> batch(pipeline->test_.begin() + off,
                               pipeline->test_.begin() + end);
    const std::vector<Tensor> layer_preds =
        predictor->PredictAllLayers(dataset, batch);
    for (int l = 1; l <= dataset.hierarchy().num_layers(); ++l) {
      const Tensor& p = layer_preds[static_cast<size_t>(l - 1)];
      const int64_t lh = p.dim(2), lw = p.dim(3);
      for (int64_t i = 0; i < end - off; ++i) {
        Tensor frame({lh, lw});
        std::copy(p.data() + i * lh * lw, p.data() + (i + 1) * lh * lw,
                  frame.data());
        pipeline->store_.SyncFrame(l, batch[static_cast<size_t>(i)], frame);
      }
    }
  }

  pipeline->server_ = std::make_unique<RegionQueryServer>(
      &dataset.hierarchy(), &pipeline->index_, &pipeline->store_);
  return pipeline;
}

QueryEvalResult MauPipeline::Evaluate(const std::vector<GridMask>& regions,
                                      QueryStrategy strategy) const {
  MetricAccumulator acc;
  for (const GridMask& region : regions) {
    auto resolved = server_->Resolve(region, strategy);
    O4A_CHECK(resolved.ok()) << resolved.status().ToString();
    for (int64_t t : test_) {
      acc.Add(server_->EvaluateTerms(resolved->terms, t),
              RegionTruth(*dataset_, region, t));
    }
  }
  QueryEvalResult result;
  result.rmse = acc.Rmse();
  result.mape = acc.Mape();
  result.mae = acc.Mae();
  result.num_queries = static_cast<int>(regions.size());
  return result;
}

std::vector<MauPipeline::PerQuery> MauPipeline::EvaluateDetailed(
    const std::vector<GridMask>& regions, QueryStrategy strategy) const {
  std::vector<PerQuery> out;
  out.reserve(regions.size());
  for (const GridMask& region : regions) {
    auto resolved = server_->Resolve(region, strategy);
    O4A_CHECK(resolved.ok()) << resolved.status().ToString();
    MetricAccumulator acc;
    for (int64_t t : test_) {
      acc.Add(server_->EvaluateTerms(resolved->terms, t),
              RegionTruth(*dataset_, region, t));
    }
    PerQuery pq;
    pq.rmse = acc.Rmse();
    pq.terms = std::move(resolved->terms);
    out.push_back(std::move(pq));
  }
  return out;
}

}  // namespace one4all
