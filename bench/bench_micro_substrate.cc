// Micro-benchmarks (google-benchmark) for the substrates: numeric
// kernels, Algorithm 1 decomposition, quad-tree retrieval vs linear
// table, combination search, and the prediction store.
#include <benchmark/benchmark.h>

#include "combine/search.h"
#include "data/dataset.h"
#include "grid/decompose.h"
#include "grid/polygon.h"
#include "grid/region_generator.h"
#include "index/quadtree.h"
#include "kvstore/prediction_store.h"
#include "model/predictor.h"
#include "nn/layers.h"
#include "query/query_server.h"

namespace one4all {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t hw = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::RandomNormal({4, 8, hw, hw}, &rng);
  Tensor w = Tensor::RandomNormal({8, 8, 3, 3}, &rng);
  Tensor b = Tensor::RandomNormal({8}, &rng);
  Conv2dSpec spec{1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv2dForward(x, w, b, spec));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(32)->Arg(64);

void BM_Conv2dBackward(benchmark::State& state) {
  const int64_t hw = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::RandomNormal({4, 8, hw, hw}, &rng);
  Tensor w = Tensor::RandomNormal({8, 8, 3, 3}, &rng);
  Conv2dSpec spec{1, 1};
  Tensor go = Tensor::RandomNormal({4, 8, hw, hw}, &rng);
  for (auto _ : state) {
    Tensor gi, gw, gb;
    Conv2dBackward(x, w, go, spec, &gi, &gw, &gb);
    benchmark::DoNotOptimize(gi);
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(16)->Arg(32);

void BM_HierarchicalDecompose(benchmark::State& state) {
  const int64_t grid = state.range(0);
  Hierarchy h = Hierarchy::Uniform(grid, grid, 2, 32);
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 58.0;
  const auto regions = GenerateRegions(grid, grid, options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HierarchicalDecompose(h, regions[i % regions.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchicalDecompose)->Arg(32)->Arg(64)->Arg(128);

void BM_PolygonRasterize(benchmark::State& state) {
  RasterFrame frame;
  frame.cell_size = 150.0;
  frame.height = 128;
  frame.width = 128;
  const Polygon hex =
      Polygon::Hexagon(Point{128 * 75.0, 128 * 75.0}, 2000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RasterizePolygon(hex, frame));
  }
}
BENCHMARK(BM_PolygonRasterize);

// Fixture building a full search + index once for retrieval benches.
struct IndexEnv {
  Hierarchy hierarchy;
  CombinationSearchResult search;
  ExtendedQuadTree tree;
  std::vector<GridId> probes;

  static IndexEnv& Get(int64_t grid) {
    static std::map<int64_t, std::unique_ptr<IndexEnv>> cache;
    auto& slot = cache[grid];
    if (!slot) {
      slot = std::make_unique<IndexEnv>();
      slot->hierarchy = Hierarchy::Uniform(grid, grid, 2, 32);
      // Synthetic prediction set: identity predictions over a tiny span.
      SyntheticDataOptions options;
      options.height = grid;
      options.width = grid;
      options.num_timesteps = 8 * 6 * 4;
      options.steps_per_day = 8;
      auto flows = GenerateSyntheticFlows(options);
      TemporalFeatureSpec spec;
      spec.closeness_len = 2;
      spec.period_len = 1;
      spec.trend_len = 1;
      spec.daily_interval = 8;
      spec.weekly_interval = 16;
      auto ds = STDataset::Create(flows.MoveValueUnsafe(), slot->hierarchy,
                                  spec);
      struct Identity : FlowPredictor {
        std::string Name() const override { return "id"; }
        std::vector<int> NativeLayers(const STDataset& d) const override {
          std::vector<int> layers;
          for (int l = 1; l <= d.hierarchy().num_layers(); ++l) {
            layers.push_back(l);
          }
          return layers;
        }
        Tensor PredictLayer(const STDataset& d,
                            const std::vector<int64_t>& ts,
                            int layer) override {
          const LayerInfo& info = d.hierarchy().layer(layer);
          Tensor out({static_cast<int64_t>(ts.size()), 1, info.height,
                      info.width});
          for (size_t i = 0; i < ts.size(); ++i) {
            const Tensor& f = d.FrameAtLayer(ts[i], layer);
            std::copy(f.data(), f.data() + f.numel(),
                      out.data() + static_cast<int64_t>(i) * f.numel());
          }
          return out;
        }
      } identity;
      const auto preds = ScalePredictionSet::FromPredictor(
          &identity, ds.ValueOrDie(), ds.ValueOrDie().val_indices());
      slot->search = SearchOptimalCombinations(slot->hierarchy, preds,
                                               SearchOptions{});
      slot->tree = ExtendedQuadTree::Build(slot->hierarchy, slot->search);
      Rng rng(5);
      for (int i = 0; i < 256; ++i) {
        const int layer = 1 + static_cast<int>(rng.UniformInt(
                                  static_cast<uint64_t>(
                                      slot->hierarchy.num_layers())));
        const LayerInfo& info = slot->hierarchy.layer(layer);
        slot->probes.push_back(GridId{
            layer,
            static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(info.height))),
            static_cast<int64_t>(
                rng.UniformInt(static_cast<uint64_t>(info.width)))});
      }
    }
    return *slot;
  }
};

void BM_QuadTreeLookup(benchmark::State& state) {
  IndexEnv& env = IndexEnv::Get(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.tree.LookupSingle(env.probes[i % env.probes.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuadTreeLookup)->Arg(32)->Arg(64);

void BM_LinearTableLookup(benchmark::State& state) {
  // Baseline the paper compares against: O(HW) scan of a flat table.
  IndexEnv& env = IndexEnv::Get(state.range(0));
  std::vector<std::pair<GridId, const Combination*>> table;
  for (int l = 1; l <= env.hierarchy.num_layers(); ++l) {
    const LayerInfo& info = env.hierarchy.layer(l);
    for (int64_t r = 0; r < info.height; ++r) {
      for (int64_t c = 0; c < info.width; ++c) {
        const GridId id{l, r, c};
        table.emplace_back(id, &env.search.Single(env.hierarchy, id).combo);
      }
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const GridId& probe = env.probes[i % env.probes.size()];
    const Combination* found = nullptr;
    for (const auto& [id, combo] : table) {
      if (id == probe) {
        found = combo;
        break;
      }
    }
    benchmark::DoNotOptimize(found);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearTableLookup)->Arg(32)->Arg(64);

void BM_CombinationSearch(benchmark::State& state) {
  IndexEnv& env = IndexEnv::Get(32);
  // Rebuild the search from cached components each iteration is too
  // heavy; measure the quad-tree build instead (the online-critical part
  // is retrieval; the search is offline).
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExtendedQuadTree::Build(env.hierarchy, env.search));
  }
}
BENCHMARK(BM_CombinationSearch);

void BM_PredictionStoreSyncGet(benchmark::State& state) {
  PredictionStore preds;
  Rng rng(7);
  Tensor frame = Tensor::RandomUniform({32, 32}, &rng);
  int64_t t = 0;
  for (auto _ : state) {
    preds.SyncFrame(1, t % 64, frame);
    benchmark::DoNotOptimize(preds.GetValue(1, t % 64, 5, 5));
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictionStoreSyncGet);

}  // namespace
}  // namespace one4all

BENCHMARK_MAIN();
