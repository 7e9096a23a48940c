// Tests for the sharded serving subsystem (src/shard): band-partition
// geometry, word-parallel routing against per-cell scan references, the
// two-phase epoch barrier (including the TSan-hammered concurrent
// publish-vs-pin loop), abort-all staging under injected write faults —
// and the headline contract: the executor's answers at every shard count
// are bit-identical to the per-term TryEvaluateTerms reference over a
// one-store copy of the frames, for every spec shape, straddling
// regions, top-k tie order and failing rows included.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "serve/serving_runtime.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::ExpectBitExactRows;
using testing::MaterializedFrameAt;
using testing::OneStoreCopy;
using testing::ReferenceResult;

// ---------------------------------------------------------------------------
// ShardMap geometry

TEST(ShardMapTest, BandsPartitionAtomicRows) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  for (int n : {1, 2, 3, 4, 5, 16}) {
    ShardMap map = ShardMap::Create(&hierarchy, n);
    ASSERT_EQ(map.num_shards(), n);
    EXPECT_EQ(map.AtomicRowBegin(0), 0);
    for (int64_t r = 0; r < 16; ++r) {
      const int owner = map.OwnerOfAtomicRow(r);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, n);
      EXPECT_GE(r, map.AtomicRowBegin(owner));
      if (owner + 1 < n) {
        EXPECT_LT(r, map.AtomicRowBegin(owner + 1));
      }
    }
    // Owners are non-decreasing in row: contiguous bands.
    for (int64_t r = 1; r < 16; ++r) {
      EXPECT_GE(map.OwnerOfAtomicRow(r), map.OwnerOfAtomicRow(r - 1));
    }
  }
}

TEST(ShardMapTest, ClampsShardCountToAtomicHeight) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 8);
  ShardMap map = ShardMap::Create(&hierarchy, 64);
  EXPECT_EQ(map.num_shards(), 8);
  EXPECT_EQ(ShardMap::Create(&hierarchy, 0).num_shards(), 1);
  EXPECT_EQ(ShardMap::Create(&hierarchy, -3).num_shards(), 1);
}

TEST(ShardMapTest, LayerSlicesAreDisjointAndCovering) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  for (int n : {2, 3, 4, 7}) {
    ShardMap map = ShardMap::Create(&hierarchy, n);
    for (int l = 1; l <= hierarchy.num_layers(); ++l) {
      int64_t next_row = 0;
      for (int k = 0; k < n; ++k) {
        const ShardLayerSlice& slice = map.SliceOf(k, l);
        EXPECT_EQ(slice.row_begin, next_row)
            << "layer " << l << " shard " << k;
        EXPECT_GE(slice.row_end, slice.row_begin);
        next_row = slice.row_end;
      }
      EXPECT_EQ(next_row, hierarchy.layer(l).height) << "layer " << l;
      // Ownership agrees with the slices: every cell's owner's slice
      // contains its row.
      for (int64_t r = 0; r < hierarchy.layer(l).height; ++r) {
        const int owner = map.OwnerOf(GridId{l, r, 0});
        const ShardLayerSlice& slice = map.SliceOf(owner, l);
        EXPECT_GE(r, slice.row_begin);
        EXPECT_LT(r, slice.row_end);
      }
    }
    // The coarsest layer (1 cell spanning the whole grid) anchors at
    // atomic row 0, so it is wholly shard 0's.
    const int top = hierarchy.num_layers();
    EXPECT_EQ(map.OwnerOf(GridId{top, 0, 0}), 0);
  }
}

TEST(ShardMapTest, SliceFrameCopiesOwnedRows) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardMap map = ShardMap::Create(&hierarchy, 3);
  const int layer = 2;  // 8x8
  const LayerInfo& info = hierarchy.layer(layer);
  Tensor frame({info.height, info.width});
  for (int64_t r = 0; r < info.height; ++r) {
    for (int64_t c = 0; c < info.width; ++c) {
      frame.at(r, c) = static_cast<float>(r * 100 + c);
    }
  }
  for (int k = 0; k < 3; ++k) {
    const ShardLayerSlice& slice = map.SliceOf(k, layer);
    Tensor band = map.SliceFrame(k, layer, frame);
    if (slice.empty()) {
      EXPECT_EQ(band.numel(), 0);
      continue;
    }
    ASSERT_EQ(band.dim(0), slice.num_rows());
    ASSERT_EQ(band.dim(1), info.width);
    for (int64_t r = 0; r < slice.num_rows(); ++r) {
      for (int64_t c = 0; c < info.width; ++c) {
        EXPECT_EQ(band.at(r, c), frame.at(slice.row_begin + r, c));
      }
    }
  }
}

// Test-only references: the per-cell scans the word-parallel routing
// replaced. Each probes every cell of the raster with GridMask::at.
std::vector<int64_t> SplitRegionCellsByScan(const ShardMap& map,
                                            const GridMask& region) {
  std::vector<int64_t> cells(static_cast<size_t>(map.num_shards()), 0);
  for (int64_t r = 0; r < region.height(); ++r) {
    for (int64_t c = 0; c < region.width(); ++c) {
      if (region.at(r, c)) {
        ++cells[static_cast<size_t>(map.OwnerOfAtomicRow(r))];
      }
    }
  }
  return cells;
}

int HomeShardByScan(const ShardMap& map, const GridMask& region) {
  for (int64_t r = 0; r < region.height(); ++r) {
    for (int64_t c = 0; c < region.width(); ++c) {
      if (region.at(r, c)) return map.OwnerOfAtomicRow(r);
    }
  }
  return 0;
}

/// Seeded random masks of varied density, plus masks whose first set
/// cell lies deep in the raster (only the bottom rows populated).
std::vector<GridMask> RandomMasks(int64_t h, int64_t w, uint64_t seed) {
  std::vector<GridMask> masks;
  Rng rng(seed);
  for (const double density : {0.5, 0.05, 0.002}) {
    for (int i = 0; i < 8; ++i) {
      GridMask mask(h, w);
      const int64_t first_row = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(h)));
      for (int64_t r = first_row; r < h; ++r) {
        for (int64_t c = 0; c < w; ++c) {
          if (rng.Uniform() < density) mask.Set(r, c, true);
        }
      }
      masks.push_back(std::move(mask));
    }
  }
  return masks;
}

TEST(ShardMapTest, SplitRegionCellsAccountsEveryCell) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardMap map = ShardMap::Create(&hierarchy, 4);
  GridMask region(16, 16);
  region.FillRect(2, 3, 14, 9);  // straddles all four 4-row bands
  const std::vector<int64_t> split = map.SplitRegionCells(region);
  ASSERT_EQ(split.size(), 4u);
  int64_t total = 0;
  for (const int64_t cells : split) total += cells;
  EXPECT_EQ(total, region.Count());
  for (int k = 0; k < 4; ++k) EXPECT_GT(split[k], 0) << "shard " << k;

  // A 100x70 raster: rows are not word-aligned (a word holds the tail of
  // one row and the head of the next), and no band is either. The
  // word-parallel split equals the per-cell scan on every mask.
  Hierarchy ragged = Hierarchy::Uniform(100, 70, 2, 8);
  for (int n : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("num_shards=" + std::to_string(n));
    ShardMap ragged_map = ShardMap::Create(&ragged, n);
    std::vector<GridMask> masks = RandomMasks(100, 70, 77);
    GridMask band_edges(100, 70);
    for (int k = 1; k < n; ++k) {
      band_edges.FillRect(ragged_map.AtomicRowBegin(k) - 1, 60,
                          ragged_map.AtomicRowBegin(k) + 1, 70);
    }
    masks.push_back(band_edges);
    masks.push_back(GridMask(100, 70));
    for (const GridMask& mask : masks) {
      const std::vector<int64_t> words = ragged_map.SplitRegionCells(mask);
      EXPECT_EQ(words, SplitRegionCellsByScan(ragged_map, mask));
      int64_t sum = 0;
      for (const int64_t cells : words) sum += cells;
      EXPECT_EQ(sum, mask.Count());
    }
  }
}

// ---------------------------------------------------------------------------
// ShardRouter

// HomeShard reads the first non-zero word; the cell scan it replaced is
// the definition. They agree on random masks and on single cells at the
// raster's corners, on both sides of every band boundary and on a row
// whose bits straddle two words.
TEST(ShardRouterTest, HomeShardMatchesCellScanReference) {
  struct Raster {
    int64_t h, w, max_scale;
  };
  for (const Raster raster : {Raster{128, 128, 32}, Raster{100, 70, 8}}) {
    Hierarchy hierarchy =
        Hierarchy::Uniform(raster.h, raster.w, 2, raster.max_scale);
    for (int n : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE("raster " + std::to_string(raster.h) + "x" +
                   std::to_string(raster.w) +
                   " num_shards=" + std::to_string(n));
      ShardMap map = ShardMap::Create(&hierarchy, n);
      ShardRouter router(&map);
      std::vector<GridMask> masks =
          RandomMasks(raster.h, raster.w, 1000 + static_cast<uint64_t>(n));
      auto single_cell = [&](int64_t r, int64_t c) {
        GridMask mask(raster.h, raster.w);
        mask.Set(r, c, true);
        masks.push_back(std::move(mask));
      };
      single_cell(0, 0);
      single_cell(raster.h - 1, raster.w - 1);
      for (int k = 1; k < n; ++k) {
        const int64_t boundary = map.AtomicRowBegin(k);
        single_cell(boundary - 1, raster.w - 1);
        single_cell(boundary, 0);
      }
      // At W=70 row 1 spans bits [70, 140): its first cells share word 1
      // with row 0's last six, and its last cells share word 2 with row 2.
      single_cell(1, 0);
      single_cell(1, raster.w - 1);
      single_cell(0, raster.w - 1);
      masks.push_back(GridMask(raster.h, raster.w));  // empty: shard 0
      for (size_t i = 0; i < masks.size(); ++i) {
        EXPECT_EQ(router.HomeShard(masks[i]), HomeShardByScan(map, masks[i]))
            << "mask " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShardSet: barrier publish, pins, faults

std::vector<Tensor> MakeLayerFrames(const Hierarchy& hierarchy, int64_t t) {
  std::vector<Tensor> frames;
  for (int l = 1; l <= hierarchy.num_layers(); ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    Tensor frame({info.height, info.width});
    for (int64_t i = 0; i < frame.numel(); ++i) {
      frame.data()[i] = static_cast<float>(t * 1000 + l);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(ShardSetTest, BarrierPublishesAllShardsAtomically) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 4, nullptr, ShardSetOptions{});
  EXPECT_EQ(set.published_latest_t(), -1);
  for (int64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(set.StageAndPublish(t, MakeLayerFrames(hierarchy, t),
                                    /*carry_forward=*/true, nullptr)
                    .ok());
  }
  EXPECT_EQ(set.published_latest_t(), 2);
  EXPECT_TRUE(set.Consistent());
  ShardPinSet pins = set.PinAll();
  ASSERT_TRUE(pins.pinned());
  EXPECT_EQ(pins.latest_t(), 2);
  // Every shard serves its band slice of every timestep (carry-forward),
  // at the generation the pin names.
  for (int k = 0; k < set.num_shards(); ++k) {
    for (int64_t t = 0; t < 3; ++t) {
      auto frame = MaterializedFrameAt(set.shard(k).store,
                                       pins.generation(k), 1, t);
      ASSERT_TRUE(frame.ok()) << "shard " << k << " t " << t;
      EXPECT_EQ(frame->at(0, 0), static_cast<float>(t * 1000 + 1));
      EXPECT_EQ(frame->dim(0), set.map().SliceOf(k, 1).num_rows());
    }
  }
}

// The incremental-staging parity pin: publishing a churn stream through
// the dirty-carrying StageAndPublish must leave an N-shard set serving
// exactly the same values as N=1 — per-band dirty slicing, delta-staged
// bands and CoW aliasing included. Bit-exact, not approximately equal:
// clean tiles are the previous epoch's bytes and dirty tiles are staged
// by the same full-copy path both topologies share.
TEST(ShardParityTest, IncrementalStagingBitExactAcrossShardCounts) {
  Hierarchy hierarchy = Hierarchy::Uniform(64, 64, 2, 16);
  const int num_layers = hierarchy.num_layers();
  ShardSet set1(&hierarchy, 1, nullptr, ShardSetOptions{});
  ShardSet set4(&hierarchy, 4, nullptr, ShardSetOptions{});

  std::vector<Tensor> prev;
  for (int l = 1; l <= num_layers; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    Rng rng(100 + static_cast<uint64_t>(l));
    prev.push_back(
        Tensor::RandomUniform({info.height, info.width}, &rng, 0.0f, 8.0f));
  }
  ASSERT_TRUE(set1.StageAndPublish(0, prev, nullptr, true, nullptr).ok());
  ASSERT_TRUE(set4.StageAndPublish(0, prev, nullptr, true, nullptr).ok());

  constexpr int64_t kSteps = 5;
  for (int64_t t = 1; t <= kSteps; ++t) {
    std::vector<Tensor> next;
    DirtyTileSets dirty;
    for (int l = 1; l <= num_layers; ++l) {
      const LayerInfo& info = hierarchy.layer(l);
      Tensor frame = prev[static_cast<size_t>(l) - 1];
      // One small localized rect of churn per layer per step.
      const int64_t r0 = (t * 7) % std::max<int64_t>(info.height - 3, 1);
      const int64_t c0 = (t * 11) % std::max<int64_t>(info.width - 3, 1);
      for (int64_t r = r0; r < std::min(r0 + 4, info.height); ++r) {
        for (int64_t c = c0; c < std::min(c0 + 4, info.width); ++c) {
          frame.data()[r * info.width + c] += static_cast<float>(t + l);
        }
      }
      dirty.push_back(DiffFrames(frame, prev[static_cast<size_t>(l) - 1]));
      EXPECT_TRUE(dirty.back().AnyDirty());
      next.push_back(std::move(frame));
    }
    ASSERT_TRUE(set1.StageAndPublish(t, next, &dirty, true, nullptr).ok());
    ASSERT_TRUE(set4.StageAndPublish(t, next, &dirty, true, nullptr).ok());
    prev = std::move(next);
  }

  ShardPinSet pins1 = set1.PinAll();
  ShardPinSet pins4 = set4.PinAll();
  ASSERT_TRUE(pins1.pinned() && pins4.pinned());
  for (int l = 1; l <= num_layers; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    for (int64_t t = 0; t <= kSteps; ++t) {
      auto whole = MaterializedFrameAt(set1.shard(0).store,
                                       pins1.generation(0), l, t);
      ASSERT_TRUE(whole.ok()) << "layer " << l << " t " << t;
      for (int k = 0; k < set4.num_shards(); ++k) {
        const ShardLayerSlice& slice = set4.map().SliceOf(k, l);
        if (slice.empty()) continue;
        auto band = MaterializedFrameAt(set4.shard(k).store,
                                        pins4.generation(k), l, t);
        ASSERT_TRUE(band.ok()) << "shard " << k << " layer " << l;
        for (int64_t r = 0; r < slice.num_rows(); ++r) {
          for (int64_t c = 0; c < info.width; ++c) {
            ASSERT_EQ(band->at(r, c), whole->at(slice.row_begin + r, c))
                << "shard " << k << " layer " << l << " t " << t;
          }
        }
      }
    }
  }

  // Both topologies really took the CoW path: within the published
  // generation, consecutive timesteps share the clean tiles' blocks.
  auto count_shared = [&](ShardSet& set, const ShardPinSet& pins) {
    int64_t shared = 0;
    for (int k = 0; k < set.num_shards(); ++k) {
      auto a = set.shard(k).store.GetTiledFrameAt(pins.generation(k), 1,
                                                  kSteps - 1);
      auto b =
          set.shard(k).store.GetTiledFrameAt(pins.generation(k), 1, kSteps);
      if (!a.ok() || !b.ok()) continue;
      for (int64_t i = 0; i < (*a)->tiles_h(); ++i) {
        for (int64_t j = 0; j < (*a)->tiles_w(); ++j) {
          if ((*b)->SharesBlockWith(**a, i, j)) ++shared;
        }
      }
    }
    return shared;
  };
  EXPECT_GT(count_shared(set1, pins1), 0);
  EXPECT_GT(count_shared(set4, pins4), 0);
}

TEST(ShardSetTest, WriteFaultAbortsAllShardsAndRecovers) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 3, nullptr, ShardSetOptions{});
  ASSERT_TRUE(set.StageAndPublish(0, MakeLayerFrames(hierarchy, 0), true,
                                  nullptr)
                  .ok());
  set.SetWriteFault(Status::IOError("injected"));
  const Status refused = set.StageAndPublish(
      1, MakeLayerFrames(hierarchy, 1), true, nullptr);
  EXPECT_FALSE(refused.ok());
  // Nothing flipped: every shard still serves t=0, and the aborted
  // shadow generations were reclaimed (one live epoch per shard).
  EXPECT_EQ(set.published_latest_t(), 0);
  EXPECT_TRUE(set.Consistent());
  EXPECT_EQ(set.max_live_epochs(), 1);
  set.ClearWriteFault();
  ASSERT_TRUE(set.StageAndPublish(1, MakeLayerFrames(hierarchy, 1), true,
                                  nullptr)
                  .ok());
  EXPECT_EQ(set.published_latest_t(), 1);
}

// The barrier hammer: one writer flips epochs in a tight loop while
// reader threads pin all shards and verify — by reading actual frame
// data from every shard — that a pin set never mixes two timesteps.
// Run under TSan in CI; the seqlock and the pin path are the code under
// test.
TEST(ShardSetTest, ConcurrentPinNeverObservesTornEpoch) {
  Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
  ShardSet set(&hierarchy, 4, nullptr, ShardSetOptions{});
  constexpr int64_t kSteps = 60;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ShardPinSet pins = set.PinAll();
        const int64_t t = pins.latest_t();
        if (t < 0) continue;  // nothing published yet
        for (int k = 0; k < set.num_shards(); ++k) {
          auto frame = MaterializedFrameAt(set.shard(k).store,
                                           pins.generation(k), 1, t);
          if (!frame.ok() ||
              frame->at(0, 0) != static_cast<float>(t * 1000 + 1)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int64_t t = 0; t < kSteps; ++t) {
    ASSERT_TRUE(set.StageAndPublish(t, MakeLayerFrames(hierarchy, t),
                                    /*carry_forward=*/true, nullptr)
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(set.torn_pins(), 0);
  EXPECT_TRUE(set.Consistent());
  EXPECT_EQ(set.published_latest_t(), kSteps - 1);
}

// ---------------------------------------------------------------------------
// Scatter-gather parity: N shards bit-exact vs the single-shard path

struct ShardFixture {
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;
  /// The served (ground-truth) frames of every test timestep in one
  /// store, read by the reference.
  std::unique_ptr<PredictionStore> reference_store;
  std::unique_ptr<RegionQueryServer> reference_server;

  static ShardFixture Make(uint64_t seed = 11, int64_t h = 16,
                           int64_t w = 16, int64_t max_scale = 16) {
    SyntheticDataOptions data_options;
    data_options.height = h;
    data_options.width = w;
    data_options.num_timesteps = 88;
    data_options.seed = seed;
    auto flows = GenerateSyntheticFlows(data_options);
    EXPECT_TRUE(flows.ok());

    TemporalFeatureSpec spec;
    spec.closeness_len = 2;
    spec.period_len = 2;
    spec.trend_len = 1;
    spec.daily_interval = 4;
    spec.weekly_interval = 8;  // MinHistory = 8

    Hierarchy hierarchy = Hierarchy::Uniform(h, w, 2, max_scale);
    auto dataset =
        STDataset::Create(flows.MoveValueUnsafe(), hierarchy, spec);
    EXPECT_TRUE(dataset.ok());

    ShardFixture fixture;
    fixture.dataset =
        std::make_unique<STDataset>(dataset.MoveValueUnsafe());
    HistoryMeanPredictor hm;
    fixture.pipeline =
        MauPipeline::Build(&hm, *fixture.dataset, SearchOptions{});

    RegionGeneratorOptions region_options;
    region_options.style = RegionStyle::kVoronoi;
    region_options.mean_cells = 12.0;
    region_options.seed = 23;
    fixture.regions = GenerateRegions(h, w, region_options);
    EXPECT_GE(fixture.regions.size(), 4u);
    // Band-straddling rectangles: tall slabs crossing every boundary any
    // N in {2, 3, 4} can draw (on the 16-row raster: rows [1, 15) and
    // [6, 10)).
    GridMask tall(h, w);
    tall.FillRect(1, 2, h - 1, 6);
    fixture.regions.push_back(tall);
    GridMask wide(h, w);
    wide.FillRect(h * 3 / 8, 0, h * 5 / 8, w);
    fixture.regions.push_back(wide);

    const STDataset& data = *fixture.dataset;
    fixture.reference_store = OneStoreCopy(
        data.hierarchy().num_layers(), data.test_indices().front(),
        data.test_indices().back(),
        [&data](int64_t t, int l) { return data.FrameAtLayer(t, l); });
    fixture.reference_server = std::make_unique<RegionQueryServer>(
        &data.hierarchy(), &fixture.pipeline->index(),
        fixture.reference_store.get());
    return fixture;
  }

  QueryResult Reference(const QuerySpec& spec) const {
    return ReferenceResult(*reference_server, spec);
  }

  std::unique_ptr<ServingRuntime> MakeRuntime(int num_shards) const {
    ServingRuntimeOptions options;
    options.ingest.start_t = dataset->test_indices().front();
    options.ingest.num_timesteps =
        static_cast<int64_t>(dataset->test_indices().size());
    options.num_shards = num_shards;
    auto runtime = std::make_unique<ServingRuntime>(
        &dataset->hierarchy(), &pipeline->index(), dataset.get(),
        MakeGroundTruthInference(dataset.get()), options);
    runtime->Start();
    EXPECT_TRUE(runtime->ingestor().WaitUntilPublished(
        options.ingest.start_t + options.ingest.num_timesteps - 1));
    return runtime;
  }
};

TEST(ShardParityTest, AllSpecShapesMatchReferenceAtEveryShardCount) {
  ShardFixture fixture = ShardFixture::Make();
  const int64_t t0 = fixture.dataset->test_indices().front();
  const int64_t t1 = t0 + 7;

  std::mt19937_64 rng(1234);
  for (int num_shards : {1, 2, 3, 4}) {
    auto runtime = fixture.MakeRuntime(num_shards);
    ASSERT_EQ(runtime->shards().num_shards(), num_shards);
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    const auto check = [&](const QuerySpec& spec, const std::string& what) {
      auto result = runtime->ExecuteSpec(spec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
      ExpectBitExactRows(fixture.Reference(spec), *result, what);
    };

    for (int round = 0; round < 6; ++round) {
      const GridMask& region = fixture.regions[rng() % fixture.regions.size()];
      const int64_t t = t0 + static_cast<int64_t>(rng() % 8);

      // Shape 1: point-in-time.
      check(QuerySpec::PointInTime(region, t), "point");

      // Shape 2: time-range (each aggregation fold).
      for (TimeAggregation agg : {TimeAggregation::kSum,
                                  TimeAggregation::kMean,
                                  TimeAggregation::kMax}) {
        QuerySpec range_spec = QuerySpec::TimeRange(region, t0, t1, agg);
        range_spec.keep_series = true;
        check(range_spec, "range");
      }

      // Shape 3: multi-region (the full region set at once).
      check(QuerySpec::MultiRegion(fixture.regions, t), "multi");

      // Shape 4: top-k, with duplicated regions forcing exact value
      // ties — rank order (ties toward the lower index) must survive
      // sharding.
      std::vector<GridMask> tied = fixture.regions;
      tied.push_back(tied[0]);
      tied.push_back(tied[1]);
      tied.push_back(tied[0]);
      check(QuerySpec::TopK(tied, t, static_cast<int>(tied.size())), "topk");
    }

    EXPECT_TRUE(runtime->shards().Consistent());
    runtime->Stop();
  }
}

// Ragged edges: on a 100x70 raster every layer's last tile row and
// column are short and no shard band is tile-aligned. The interpreter at
// N in {1, 2, 3, 4}, and over the reference's own one-store copy, gives
// the reference's bits.
TEST(ShardParityTest, RaggedEdgeSpecShapesAcrossShardCounts) {
  ShardFixture fixture = ShardFixture::Make(31, 100, 70, 8);
  // Edge-hugging regions: the short corner tile, the last row and column
  // as thin strips, and a block crossing interior tile boundaries.
  const int64_t edge_rects[][4] = {
      {90, 60, 100, 70}, {99, 0, 100, 70}, {0, 69, 100, 70},
      {28, 28, 37, 37}};
  for (const auto& r : edge_rects) {
    GridMask region(100, 70);
    region.FillRect(r[0], r[1], r[2], r[3]);
    fixture.regions.push_back(region);
  }
  const int64_t t0 = fixture.dataset->test_indices().front();
  const int64_t t1 = t0 + 5;

  std::vector<QuerySpec> shapes;
  shapes.push_back(QuerySpec::PointInTime(fixture.regions.back(), t0 + 1));
  for (TimeAggregation agg : {TimeAggregation::kSum, TimeAggregation::kMean,
                              TimeAggregation::kMax}) {
    QuerySpec range = QuerySpec::TimeRange(fixture.regions[0], t0, t1, agg);
    range.keep_series = true;
    shapes.push_back(range);
  }
  QuerySpec multi = QuerySpec::MultiRegion(fixture.regions, t0);
  multi.time = TimeSelector::Range(t0, t1);
  multi.keep_series = true;
  shapes.push_back(multi);
  shapes.push_back(QuerySpec::TopK(fixture.regions, t1, 5));

  std::vector<QueryResult> reference;
  for (const QuerySpec& shape : shapes) {
    reference.push_back(fixture.Reference(shape));
    for (const auto& row : reference.back().rows) ASSERT_TRUE(row.ok());
  }

  const QueryPlanner planner(&fixture.dataset->hierarchy());
  for (size_t k = 0; k < shapes.size(); ++k) {
    auto plan = planner.Plan(shapes[k]);
    ASSERT_TRUE(plan.ok());
    ExpectBitExactRows(
        reference[k],
        QueryExecutor(fixture.reference_server.get()).Execute(*plan),
        "one store");
  }

  for (int num_shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto runtime = fixture.MakeRuntime(num_shards);
    for (size_t k = 0; k < shapes.size(); ++k) {
      auto result = runtime->ExecuteSpec(shapes[k]);
      ASSERT_TRUE(result.ok());
      ExpectBitExactRows(reference[k], *result, "ragged");
    }
    EXPECT_TRUE(runtime->shards().Consistent());
    runtime->Stop();
  }
}

// One answer on every path, over model-like frames: fractional cells,
// ~1e3 cells next to ~1e-7 cells (the mix that made double prefix sums
// round), and a few fractional cells churned per step. The inputs are
// seeded random regions of every RegionStyle, random masks, and
// rect-heavy regions straddling the band boundaries of every N; the
// paths are N in {1, 2, 3, 4}, each delta-staged (the runtime's
// ingestor) and staged in full at every timestep (a ShardSet fed no
// dirty sets), for all four spec shapes. Every OK row equals the
// TryEvaluateTerms fold over a one-store copy of the frames, and every
// failing row (a timestep past the newest) carries the reference's code
// and message at every N.
TEST(ShardParityTest, ModelLikeFramesOneAnswerOnEveryPath) {
  ShardFixture fixture = ShardFixture::Make(41, 100, 70, 8);
  const Hierarchy& hierarchy = fixture.dataset->hierarchy();
  const int num_layers = hierarchy.num_layers();
  const int64_t h = hierarchy.atomic_height();
  const int64_t w = hierarchy.atomic_width();
  const int64_t start_t = fixture.dataset->test_indices().front();
  constexpr int64_t kSteps = 8;

  Rng rng(4242);
  auto pick = [&rng](int64_t n) {
    return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
  };

  std::vector<GridMask> regions;
  for (RegionStyle style : {RegionStyle::kVoronoi, RegionStyle::kHexagon,
                            RegionStyle::kRoadGrid}) {
    RegionGeneratorOptions options;
    options.style = style;
    options.mean_cells = static_cast<double>(20 + pick(200));
    options.seed = static_cast<uint64_t>(100 + pick(1000));
    const std::vector<GridMask> generated = GenerateRegions(h, w, options);
    ASSERT_FALSE(generated.empty()) << RegionStyleName(style);
    for (int i = 0; i < 6; ++i) {
      regions.push_back(generated[static_cast<size_t>(
          pick(static_cast<int64_t>(generated.size())))]);
    }
  }
  for (const int density : {20, 300, 800}) {
    const GridMask mask = testing::RandomMask(
        h, w, static_cast<uint64_t>(pick(1 << 20)), density);
    if (!mask.Empty()) regions.push_back(mask);
  }
  // Rect-heavy regions whose rows cross a band boundary of N = 2, 3 or 4
  // (bands start at k * h / N), plus two fixed slabs.
  for (int n = 2; n <= 4; ++n) {
    for (int k = 1; k < n; ++k) {
      const int64_t boundary = k * h / n;
      const int64_t r0 = boundary - 1 - pick(12);
      const int64_t r1 = boundary + 1 + pick(12);
      const int64_t c0 = pick(w - 8);
      const int64_t c1 = c0 + 4 + pick(w - c0 - 3);
      GridMask region(h, w);
      region.FillRect(r0, c0, r1, c1);
      regions.push_back(region);
    }
  }
  for (const auto& r : {std::array<int64_t, 4>{10, 5, 60, 50},
                        std::array<int64_t, 4>{33, 0, 100, 70}}) {
    GridMask region(h, w);
    region.FillRect(r[0], r[1], r[2], r[3]);
    regions.push_back(region);
  }

  auto frames = std::make_shared<std::vector<std::vector<Tensor>>>();
  std::vector<Tensor> current;
  for (int l = 1; l <= num_layers; ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    Tensor frame({info.height, info.width});
    for (int64_t r = 0; r < info.height; ++r) {
      for (int64_t c = 0; c < info.width; ++c) {
        const float jitter = static_cast<float>(rng.Uniform());
        frame.at(r, c) = (r + c) % 3 == 0   ? 1e3f * (1.0f + jitter)
                         : (r + c) % 3 == 1 ? 1e-7f * (1.0f + jitter)
                                            : 37.0f * jitter;
      }
    }
    current.push_back(std::move(frame));
  }
  for (int64_t i = 0; i < kSteps; ++i) {
    if (i > 0) {
      for (Tensor& frame : current) {
        for (int k = 0; k < 5; ++k) {
          frame.at(pick(frame.dim(0)), pick(frame.dim(1))) +=
              0.1f * static_cast<float>(1 + pick(9)) +
              1e-7f * static_cast<float>(pick(5));
        }
      }
    }
    frames->push_back(current);
  }
  const int64_t t1 = start_t + kSteps - 1;
  const std::unique_ptr<PredictionStore> reference_store = OneStoreCopy(
      num_layers, start_t, t1, [&frames, start_t](int64_t t, int l) {
        return (*frames)[static_cast<size_t>(t - start_t)]
                        [static_cast<size_t>(l - 1)];
      });
  const RegionQueryServer reference_server(
      &hierarchy, &fixture.pipeline->index(), reference_store.get());

  // The four shapes over random regions and timesteps, then rows that
  // reach past the newest published timestep.
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 6; ++i) {
    const GridMask& region = regions[static_cast<size_t>(
        pick(static_cast<int64_t>(regions.size())))];
    specs.push_back(QuerySpec::PointInTime(region, start_t + pick(kSteps)));
    const int64_t r0 = start_t + pick(kSteps);
    QuerySpec range =
        QuerySpec::TimeRange(region, r0, r0 + pick(t1 - r0 + 1),
                             static_cast<TimeAggregation>(pick(3)));
    range.keep_series = true;
    specs.push_back(range);
  }
  QuerySpec multi = QuerySpec::MultiRegion(regions, start_t + 2);
  multi.time = TimeSelector::Range(start_t + 2, t1);
  multi.keep_series = true;
  specs.push_back(multi);
  specs.push_back(QuerySpec::TopK(regions, t1, 5));
  specs.push_back(QuerySpec::TopK(regions, start_t + pick(kSteps),
                                  static_cast<int>(regions.size())));
  specs.push_back(QuerySpec::TimeRange(regions.back(), t1 - 1, t1 + 2));
  specs.push_back(QuerySpec::MultiRegion(regions, t1 + 1));
  std::vector<QueryResult> reference;
  for (const QuerySpec& spec : specs) {
    reference.push_back(ReferenceResult(reference_server, spec));
  }
  ASSERT_FALSE(reference.back().rows[0].ok());

  const QueryPlanner planner(&hierarchy);
  const QueryExecutor executor(&reference_server);
  for (int num_shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    // Delta staging: the ingestor diffs each timestep against the last.
    ServingRuntimeOptions options;
    options.ingest.start_t = start_t;
    options.ingest.num_timesteps = kSteps;
    options.num_shards = num_shards;
    ServingRuntime runtime(
        &hierarchy, &fixture.pipeline->index(), fixture.dataset.get(),
        [frames, start_t](int64_t t, const TemporalInput&)
            -> Result<std::vector<Tensor>> {
          return (*frames)[static_cast<size_t>(t - start_t)];
        },
        options);
    runtime.Start();
    ASSERT_TRUE(runtime.ingestor().WaitUntilPublished(t1));
    EXPECT_GT(runtime.Telemetry().cow_shared_tiles, 0);

    // Full staging: every timestep's bands written fresh, planes built
    // from scratch.
    ShardSet full(&hierarchy, num_shards, nullptr, ShardSetOptions{});
    for (int64_t i = 0; i < kSteps; ++i) {
      ASSERT_TRUE(full.StageAndPublish(start_t + i,
                                       (*frames)[static_cast<size_t>(i)],
                                       nullptr, true, nullptr)
                      .ok());
    }
    ShardPinSet pins = full.PinAll();
    QueryExecutorOptions full_options;
    full_options.shard_map = &full.map();
    for (int k = 0; k < num_shards; ++k) {
      full_options.shards.push_back(ShardReadView{
          &full.shard(k).store, pins.generation(k), nullptr, nullptr});
    }

    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("spec " + std::to_string(i) + ": " + specs[i].ToString());
      auto delta = runtime.ExecuteSpec(specs[i]);
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      ExpectBitExactRows(reference[i], *delta, "delta staging");
      auto plan = planner.Plan(specs[i]);
      ASSERT_TRUE(plan.ok());
      ExpectBitExactRows(reference[i], executor.Execute(*plan, full_options),
                         "full staging");
    }
    runtime.Stop();
  }
}

// A row that reaches past the newest published timestep fails with the
// reference's status — its first unreadable timestep — at every shard
// count.
TEST(ShardParityTest, UnpublishedTimestepFailsIdenticallyAcrossShardCounts) {
  ShardFixture fixture = ShardFixture::Make(19);
  for (int num_shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto runtime = fixture.MakeRuntime(num_shards);
    const int64_t last = runtime->published_latest_t();
    ASSERT_EQ(last, fixture.dataset->test_indices().back());

    std::vector<QuerySpec> specs;
    specs.push_back(QuerySpec::PointInTime(fixture.regions[0], last + 1));
    // Published steps first, then one past the newest: the row fails at
    // its first unreadable timestep.
    specs.push_back(QuerySpec::TimeRange(fixture.regions.back(), last - 2,
                                         last + 2, TimeAggregation::kSum));
    specs.push_back(QuerySpec::MultiRegion(fixture.regions, last + 3));
    for (const QuerySpec& spec : specs) {
      auto result = runtime->ExecuteSpec(spec);
      ASSERT_TRUE(result.ok());
      for (const auto& row : result->rows) {
        ASSERT_FALSE(row.ok());
        EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
      }
      ExpectBitExactRows(fixture.Reference(spec), *result, "unpublished");
    }
    runtime->Stop();
  }
}

// Counting contract of the gather interpreter: every answered timestep
// of a row counts its reads on the shard serving each — 4 per rect part
// (a rect clipped to each band it crosses) and 1 per residue (on the
// shard owning its cell).
TEST(ShardParityTest, GatherReadsCountOwnedReadsPerShard) {
  ShardFixture fixture = ShardFixture::Make(37);
  const int64_t t0 = fixture.dataset->test_indices().front();
  const int64_t steps = 3;
  QuerySpec spec = QuerySpec::MultiRegion(fixture.regions, t0);
  spec.time = TimeSelector::Range(t0, t0 + steps - 1);
  for (int num_shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto runtime = fixture.MakeRuntime(num_shards);
    ShardSet& shards = runtime->shards();
    const ShardMap& map = shards.map();
    const Hierarchy& hierarchy = fixture.dataset->hierarchy();
    std::vector<int64_t> expected(static_cast<size_t>(num_shards), 0);
    int64_t parts = 0, rects = 0;
    for (const GridMask& region : fixture.regions) {
      auto resolved =
          fixture.pipeline->server().Resolve(region, spec.strategy);
      ASSERT_TRUE(resolved.ok());
      for (const SatRectRead& rect : resolved->gather.rects) {
        ++rects;
        for (int k = 0; k < num_shards; ++k) {
          const ShardLayerSlice& slice = map.SliceOf(k, rect.layer);
          if (std::max(rect.r0, slice.row_begin) <
              std::min(rect.r1, slice.row_end)) {
            expected[static_cast<size_t>(k)] += 4 * steps;
            ++parts;
          }
        }
      }
      for (const ResidueRead& residue : resolved->gather.residues) {
        const int64_t width = hierarchy.layer(residue.layer).width;
        const GridId cell{residue.layer, residue.offset / width,
                          residue.offset % width};
        expected[static_cast<size_t>(map.OwnerOf(cell))] += steps;
      }
    }
    // The straddling regions put reads on more than one band, and split
    // some rects.
    if (num_shards > 1) {
      EXPECT_GT(expected[1], 0);
      EXPECT_GT(parts, rects);
    }
    auto result = runtime->ExecuteSpec(spec);
    ASSERT_TRUE(result.ok());
    for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
    for (int k = 0; k < num_shards; ++k) {
      EXPECT_EQ(shards.shard(k).gather_reads.value(),
                expected[static_cast<size_t>(k)])
          << "shard " << k;
    }
    runtime->Stop();
  }
}

// The value of the unlabelled sample `series` in exposition `text`
// (-1 when absent).
int64_t ExpositionValue(const std::string& text, const std::string& series) {
  const size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + series.size() + 2));
}

// One counting contract for every topology: the barrier counts one
// epoch per flip, each shard's epoch manager counts its own staged
// slices and reclaimed generations, and the per-shard metric series,
// the top-k memo counters and the end-to-end histogram exist at N=1 as
// well as N=2 and N=4 — and the memo reuses rows at every N.
TEST(ShardParityTest, ShardedRuntimeServesConsistentTelemetry) {
  ShardFixture fixture = ShardFixture::Make(29);
  const int64_t steps =
      static_cast<int64_t>(fixture.dataset->test_indices().size());
  const int num_layers = fixture.dataset->hierarchy().num_layers();
  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto runtime = fixture.MakeRuntime(num_shards);
    ShardSet& shards = runtime->shards();
    ASSERT_EQ(shards.num_shards(), num_shards);
    const int64_t t = fixture.dataset->test_indices().front();
    for (int i = 0; i < 4; ++i) {
      auto result = runtime->ExecuteSpec(
          QuerySpec::MultiRegion(fixture.regions, t + i));
      ASSERT_TRUE(result.ok());
      for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
    }
    // A two-epoch top-k subscription: the first issue fills the memo,
    // the re-issues at t (nothing published since) and at t + 1 probe it.
    const int64_t rows = static_cast<int64_t>(fixture.regions.size());
    const int64_t reissues = 2;
    for (int64_t at : {t, t, t + 1}) {
      auto result =
          runtime->ExecuteSpec(QuerySpec::TopK(fixture.regions, at, 3));
      ASSERT_TRUE(result.ok());
      for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
    }
    runtime->Stop();

    int64_t slices_per_step = 0;
    int64_t shard_frames = 0;
    for (int k = 0; k < num_shards; ++k) {
      for (int l = 1; l <= num_layers; ++l) {
        if (!shards.map().SliceOf(k, l).empty()) ++slices_per_step;
      }
      shard_frames += shards.shard(k).frames_staged.value();
    }
    const ServingTelemetrySnapshot snapshot = runtime->Telemetry();
    // One barrier flip per timestep — not one per shard per timestep.
    EXPECT_EQ(snapshot.epochs_published, steps);
    // Frames and planes in staged-slice units, counted once each.
    EXPECT_EQ(snapshot.frames_staged, steps * slices_per_step);
    EXPECT_EQ(snapshot.sat_planes_built, snapshot.frames_staged);
    EXPECT_EQ(shard_frames, snapshot.frames_staged);
    // Every shard's manager counts the generations it reclaims.
    EXPECT_GT(snapshot.epochs_reclaimed, 0);
    EXPECT_EQ(shards.max_live_epochs(), 1);
    EXPECT_GT(snapshot.queries_served, 0);
    // Per-shard metrics render into the exposition with shard labels.
    const std::string exposition =
        runtime->telemetry().registry().ExpositionText();
    EXPECT_NE(
        exposition.find("one4all_shard_epochs_published_total{shard=\"0\"}"),
        std::string::npos);
    const std::string last_lag = "one4all_shard_publish_lag_ms{shard=\"" +
                                 std::to_string(num_shards - 1) + "\"}";
    EXPECT_NE(exposition.find(last_lag), std::string::npos);
    EXPECT_NE(exposition.find("one4all_shard_torn_pins"), std::string::npos);
    // The top-k memo counters and the end-to-end histogram (one sample
    // per ExecuteSpec call) exist in every topology.
    // The memo serves every shard count: each re-issued row is either
    // reused or re-evaluated, and the same-t re-issue reuses them all.
    const int64_t reused =
        ExpositionValue(exposition, "one4all_topk_rows_reused_total");
    const int64_t reevaluated =
        ExpositionValue(exposition, "one4all_topk_rows_reevaluated_total");
    EXPECT_GE(reused, rows);
    EXPECT_EQ(reused + reevaluated, rows * reissues);
    EXPECT_NE(exposition.find("one4all_query_e2e_micros_count 7\n"),
              std::string::npos);
    // One inference sample per published epoch, next to the publish one.
    EXPECT_EQ(ExpositionValue(exposition, "one4all_infer_latency_micros_count"),
              steps);
    EXPECT_EQ(
        ExpositionValue(exposition, "one4all_publish_latency_micros_count"),
        steps);
    // One kind series per spec shape: PointInTime, TimeRange,
    // MultiRegion, TopK.
    const std::string spec_series = "\none4all_specs_total{kind=\"";
    int num_spec_series = 0;
    for (size_t at = exposition.find(spec_series); at != std::string::npos;
         at = exposition.find(spec_series, at + 1)) {
      ++num_spec_series;
    }
    EXPECT_EQ(num_spec_series, 4);
    EXPECT_EQ(exposition.find("PointBatch"), std::string::npos);
    EXPECT_TRUE(MetricsRegistry::ValidateExposition(exposition).ok());
    EXPECT_TRUE(shards.Consistent());
  }
}

}  // namespace
}  // namespace one4all
