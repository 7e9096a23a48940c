// Tests for the columnar gather engine and epoch-published summed-area
// planes: the plane's four-corner rect sums against the
// GridMask::MaskedSum brute force (randomized, across shapes and edge
// rects), gather-program compilation (rect-run collapsing, duplicate
// terms, sign separation), the executor's gather interpreter bit-exact
// against the per-term TryEvaluateTerms reference (planes present or
// missing, failing rows, a huge range), plane storage/lifecycle in the
// prediction store and epoch manager, and the plane-publish hammer raced
// under TSan (a pinned epoch must never observe a torn or missing plane).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "eval/task_eval.h"
#include "query/gather_program.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "serve/epoch_manager.h"
#include "tensor/tiled_sat.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::ExpectBitExactRows;
using testing::RandomMask;
using testing::ReferenceResult;
using testing::Snapped;
using testing::TinyDataset;

// ---------------------------------------------------------------------------
// TiledSatPlane rect sums

double BruteForceRectSum(const Tensor& frame, int64_t r0, int64_t c0,
                         int64_t r1, int64_t c1) {
  GridMask mask(frame.dim(0), frame.dim(1));
  mask.FillRect(r0, c0, r1, c1);
  return mask.MaskedSum(frame);
}

TEST(TiledSatPlaneTest, RectSumsMatchMaskedSumBruteForce) {
  // Shapes covering the hierarchy's layer geometries, non-square and
  // degenerate single-row/column frames.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {8, 8}, {7, 5}, {1, 16}, {16, 1}, {33, 29}, {32, 32}};
  for (const auto& [h, w] : shapes) {
    Rng rng(static_cast<uint64_t>(h * 1000 + w));
    // Signed values: rect sums must survive cancellation, not just
    // accumulate positives. Over the snapped cells they are exact.
    const Tensor frame = Tensor::RandomNormal({h, w}, &rng, 0.0f, 10.0f);
    const Tensor snapped = Snapped(frame);
    const TiledSatPlane plane =
        TiledSatPlane::Build(TiledFrame::FromTensor(frame));
    ASSERT_EQ(plane.height(), h);
    ASSERT_EQ(plane.width(), w);

    const auto check = [&](int64_t r0, int64_t c0, int64_t r1, int64_t c1) {
      EXPECT_EQ(plane.RectSum(r0, c0, r1, c1),
                BruteForceRectSum(snapped, r0, c0, r1, c1))
          << h << "x" << w << " rect [" << r0 << "," << r1 << ")x["
          << c0 << "," << c1 << ")";
    };

    // Edge rows/cols, full frame, single cells at every corner.
    check(0, 0, h, w);
    check(0, 0, 1, w);
    check(h - 1, 0, h, w);
    check(0, 0, h, 1);
    check(0, w - 1, h, w);
    check(0, 0, 1, 1);
    check(h - 1, w - 1, h, w);
    // Empty rects are exactly zero by construction.
    EXPECT_EQ(plane.RectSum(0, 0, 0, 0), 0.0);
    EXPECT_EQ(plane.RectSum(h / 2, w / 2, h / 2, w / 2), 0.0);

    for (int trial = 0; trial < 200; ++trial) {
      const int64_t r0 = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(h)));
      const int64_t c0 = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(w)));
      const int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(h - r0)));
      const int64_t c1 = c0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(w - c0)));
      check(r0, c0, r1, c1);
    }
  }
}

// ---------------------------------------------------------------------------
// CompileGatherProgram

TEST(GatherProgramTest, CollapsesSolidRectanglesIntoOneRead) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  std::vector<CombinationTerm> terms;
  for (int64_t r = 2; r < 7; ++r) {
    for (int64_t c = 1; c < 6; ++c) {
      terms.push_back(CombinationTerm{GridId{1, r, c}, 1});
    }
  }
  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  ASSERT_EQ(program.rects.size(), 1u);
  EXPECT_TRUE(program.residues.empty());
  EXPECT_EQ(program.num_rect_terms, 25);
  EXPECT_EQ(program.rects[0].r0, 2);
  EXPECT_EQ(program.rects[0].r1, 7);
  EXPECT_EQ(program.rects[0].c0, 1);
  EXPECT_EQ(program.rects[0].c1, 6);
  ASSERT_EQ(program.layers.size(), 1u);
  EXPECT_TRUE(program.layers[0].needs_plane);
  EXPECT_FALSE(program.layers[0].needs_frame);
  EXPECT_EQ(program.num_reads(), 4);
}

TEST(GatherProgramTest, KeepsSignsSeparateAndDuplicatesAsResidues) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  std::vector<CombinationTerm> terms;
  // A positive 2x4 run at layer 2, a negative cell inside the same
  // bounding box, and one duplicated positive cell at layer 1.
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      terms.push_back(CombinationTerm{GridId{2, r, c}, 1});
    }
  }
  terms.push_back(CombinationTerm{GridId{2, 1, 2}, -1});
  terms.push_back(CombinationTerm{GridId{1, 3, 3}, 1});
  terms.push_back(CombinationTerm{GridId{1, 3, 3}, 1});

  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  ASSERT_EQ(program.rects.size(), 1u);
  EXPECT_EQ(program.rects[0].layer, 2);
  EXPECT_EQ(program.rects[0].sign, 1);
  EXPECT_EQ(program.num_rect_terms, 8);
  // -1 @ (2,1,2) + the duplicated (1,3,3) pair = 3 residues; every term
  // is accounted for exactly once.
  ASSERT_EQ(program.residues.size(), 3u);
  EXPECT_EQ(program.num_rect_terms +
                static_cast<int64_t>(program.residues.size()),
            static_cast<int64_t>(terms.size()));
  int negative = 0;
  for (const ResidueRead& residue : program.residues) {
    if (residue.sign < 0) ++negative;
  }
  EXPECT_EQ(negative, 1);
  // Layer needs: layer 1 frame-only, layer 2 plane+frame.
  ASSERT_EQ(program.layers.size(), 2u);
  EXPECT_EQ(program.layers[0].layer, 1);
  EXPECT_TRUE(program.layers[0].needs_frame);
  EXPECT_FALSE(program.layers[0].needs_plane);
  EXPECT_EQ(program.layers[1].layer, 2);
  EXPECT_TRUE(program.layers[1].needs_plane);
  EXPECT_TRUE(program.layers[1].needs_frame);
}

TEST(GatherProgramTest, SmallRectsStayResidues) {
  Hierarchy hierarchy = Hierarchy::Uniform(8, 8, 2, 4);
  // A 1x3 run: below kMinSatRectCells, four corner reads would cost more
  // than three direct reads.
  std::vector<CombinationTerm> terms = {
      CombinationTerm{GridId{1, 0, 0}, 1},
      CombinationTerm{GridId{1, 0, 1}, 1},
      CombinationTerm{GridId{1, 0, 2}, 1},
  };
  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  EXPECT_TRUE(program.rects.empty());
  EXPECT_EQ(program.residues.size(), 3u);
  // Residues are offset-sorted: the executor sweeps the frame forward.
  EXPECT_LT(program.residues[0].offset, program.residues[1].offset);
  EXPECT_LT(program.residues[1].offset, program.residues[2].offset);
}

TEST(GatherProgramTest, ResidueTileAddressesMatchFlatOffsets) {
  // 100x70 atomic raster: every layer's last tile row and column are
  // short (100 = 3*32 + 4, 70 = 2*32 + 6; coarser layers are sub-tile),
  // so in-tile strides differ between interior and edge tiles.
  const Hierarchy hierarchy = Hierarchy::Uniform(100, 70, 2, 8);
  ASSERT_EQ(hierarchy.num_layers(), 4);
  Rng rng(77);
  std::vector<CombinationTerm> terms;
  for (int l = 1; l <= hierarchy.num_layers(); ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    // Scattered single cells (some repeated) plus the four corners.
    for (int i = 0; i < 120; ++i) {
      const int64_t r = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(info.height)));
      const int64_t c = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(info.width)));
      terms.push_back(CombinationTerm{
          GridId{l, r, c}, static_cast<int8_t>(i % 3 == 0 ? -1 : 1)});
    }
    for (int64_t r : {int64_t{0}, info.height - 1}) {
      for (int64_t c : {int64_t{0}, info.width - 1}) {
        terms.push_back(CombinationTerm{GridId{l, r, c}, 1});
      }
    }
  }
  const GatherProgram program = CompileGatherProgram(terms, hierarchy);
  ASSERT_GT(program.residues.size(), 100u);

  // One random frame per layer: the address must also read the cell.
  std::vector<Tensor> frames;
  std::vector<TiledFrame> tiled;
  for (int l = 1; l <= hierarchy.num_layers(); ++l) {
    const LayerInfo& info = hierarchy.layer(l);
    frames.push_back(
        Tensor::RandomUniform({info.height, info.width}, &rng, -5.0f, 5.0f));
    tiled.push_back(TiledFrame::FromTensor(frames.back()));
  }

  for (size_t k = 0; k < program.residues.size(); ++k) {
    const ResidueRead& read = program.residues[k];
    if (k > 0) {
      const ResidueRead& prev = program.residues[k - 1];
      // Order unchanged: (layer, flat offset) ascending.
      ASSERT_TRUE(prev.layer < read.layer ||
                  (prev.layer == read.layer && prev.offset <= read.offset));
    }
    const int64_t width = hierarchy.layer(read.layer).width;
    const TiledFrame& frame = tiled[static_cast<size_t>(read.layer - 1)];
    // Decode (tile, in_tile) back to a flat offset.
    const int64_t i = read.tile / frame.tiles_w();
    const int64_t j = read.tile % frame.tiles_w();
    const int64_t tw = frame.tile_cols(j);
    const int64_t r = i * kSatTileSize + read.in_tile / tw;
    const int64_t c = j * kSatTileSize + read.in_tile % tw;
    ASSERT_LT(read.in_tile, frame.tile_rows(i) * tw);
    EXPECT_EQ(r * width + c, read.offset)
        << "layer " << read.layer << " residue " << k;
    EXPECT_EQ(frame.tiles()[read.tile][read.in_tile],
              Snap(frames[static_cast<size_t>(read.layer - 1)]
                       .data()[read.offset]));
  }
}

// ---------------------------------------------------------------------------
// Executor fast path

struct GatherFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  GatherFixture() : ds(TinyDataset(91)) {
    OraclePredictor oracle({1.5, 0.7, 0.2}, 92);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  const RegionQueryServer& server() const { return pipeline->server(); }
  QueryPlanner planner() const { return QueryPlanner(&ds.hierarchy()); }
  QueryExecutor executor() const { return QueryExecutor(&server()); }

  /// A mix of irregular random masks and axis-aligned rects (the SAT
  /// sweet spot), all on the 8x8 raster.
  std::vector<GridMask> MixedRegions() const {
    std::vector<GridMask> regions;
    for (int i = 0; i < 4; ++i) {
      const GridMask region = RandomMask(8, 8, 500 + i, 400);
      if (!region.Empty()) regions.push_back(region);
    }
    const int64_t rects[][4] = {{0, 0, 8, 8}, {1, 1, 6, 7}, {3, 2, 4, 6},
                                {2, 3, 7, 5}};
    for (const auto& r : rects) {
      GridMask region(8, 8);
      region.FillRect(r[0], r[1], r[2], r[3]);
      regions.push_back(region);
    }
    return regions;
  }
};

TEST(GatherInterpreterTest, MatchesTermReferenceAcrossSpecShapes) {
  GatherFixture fx;
  const auto regions = fx.MixedRegions();
  const auto& slots = fx.pipeline->test_timesteps();
  const int64_t t0 = slots.front();

  const auto check = [&](const QuerySpec& spec, const std::string& what) {
    auto plan = fx.planner().Plan(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const QueryResult result = fx.executor().Execute(*plan);
    for (const auto& row : result.rows) {
      ASSERT_TRUE(row.ok()) << row.status().ToString();
    }
    ExpectBitExactRows(ReferenceResult(fx.server(), spec), result, what);
  };

  for (QueryStrategy strategy :
       {QueryStrategy::kDirect, QueryStrategy::kUnion,
        QueryStrategy::kUnionSubtraction}) {
    SCOPED_TRACE(QueryStrategyName(strategy));
    // Grouped multi-region over a 4-step range, series kept.
    QuerySpec multi = QuerySpec::MultiRegion(regions, t0, strategy);
    multi.time = TimeSelector::Range(t0, t0 + 3);
    multi.keep_series = true;
    check(multi, "multi");

    // Time-range aggregations fold the same per-step values.
    for (TimeAggregation agg : {TimeAggregation::kSum,
                                TimeAggregation::kMean,
                                TimeAggregation::kMax}) {
      check(QuerySpec::TimeRange(regions[4], t0, t0 + 3, agg, strategy),
            "range");
    }
  }

  // Top-k: row values and the ranking (ties toward the lower index).
  check(QuerySpec::TopK(regions, t0, 3), "topk");

  // Predict, the point-in-time shim, answers the same bits.
  for (const GridMask& region : regions) {
    const auto predicted =
        fx.server().Predict(region, t0, QueryStrategy::kUnionSubtraction);
    ASSERT_TRUE(predicted.ok());
    const QueryResult reference =
        ReferenceResult(fx.server(), QuerySpec::PointInTime(region, t0));
    EXPECT_EQ(predicted->value, reference.rows[0]->value);
  }
}

TEST(GatherInterpreterTest, RowsFailNotFoundOnMissingFrames) {
  GatherFixture fx;
  const int64_t t = fx.pipeline->test_timesteps().front();
  PredictionStore bare;
  for (int l = 1; l <= fx.ds.hierarchy().num_layers(); ++l) {
    bare.SyncFrame(l, t, fx.ds.FrameAtLayer(t, l));
  }
  RegionQueryServer server(&fx.ds.hierarchy(), &fx.pipeline->index(),
                           &bare);
  QueryExecutor executor(&server);

  // Two scattered cells: a program of residues only, no rect reads.
  GridMask region(8, 8);
  region.Set(1, 1, true);
  region.Set(5, 6, true);
  auto resolved = server.Resolve(region, QueryStrategy::kUnionSubtraction);
  ASSERT_TRUE(resolved.ok());
  ASSERT_TRUE(resolved->gather.rects.empty());
  ASSERT_FALSE(resolved->gather.residues.empty());

  const QuerySpec present = QuerySpec::PointInTime(region, t);
  auto present_plan = fx.planner().Plan(present);
  ASSERT_TRUE(present_plan.ok());
  const QueryResult answered = executor.Execute(*present_plan);
  ASSERT_TRUE(answered.rows[0].ok());
  ExpectBitExactRows(ReferenceResult(server, present), answered, "present");

  // A range reaching one step past the synced frames fails the row with
  // the missing frame's NotFound.
  const QuerySpec missing = QuerySpec::TimeRange(region, t, t + 1);
  auto missing_plan = fx.planner().Plan(missing);
  ASSERT_TRUE(missing_plan.ok());
  const QueryResult missed = executor.Execute(*missing_plan);
  EXPECT_EQ(missed.rows[0].status().code(), StatusCode::kNotFound);
  ExpectBitExactRows(ReferenceResult(server, missing), missed, "missing");

  // Rect-reading rows at a timestep nothing synced fail per row with
  // the reference's status too: a missing entry has no plane to read.
  const QuerySpec unsynced = QuerySpec::MultiRegion(fx.MixedRegions(), t + 1);
  auto unsynced_plan = fx.planner().Plan(unsynced);
  ASSERT_TRUE(unsynced_plan.ok());
  const QueryResult unanswered = executor.Execute(*unsynced_plan);
  for (const auto& row : unanswered.rows) {
    EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
  }
  ExpectBitExactRows(ReferenceResult(server, unsynced), unanswered,
                     "unsynced");
}

// A range far past what the store holds, run by a direct executor with
// no admission control in front of it: the row fails NotFound at its
// first missing timestep, and the frame table is filled one bounded
// window of timesteps at a time, so nothing is sized by the 2^40-step
// range (the ASan job runs this under its allocator).
TEST(GatherInterpreterTest, HugeRangeFailsNotFoundWithoutSizingByRange) {
  GatherFixture fx;
  const int64_t t = fx.pipeline->test_timesteps().back();
  const GridMask region = fx.MixedRegions().back();
  const QuerySpec spec =
      QuerySpec::TimeRange(region, t, t + (int64_t{1} << 40));
  auto plan = fx.planner().Plan(spec);
  ASSERT_TRUE(plan.ok());
  Stopwatch timer;
  const QueryResult result = fx.executor().Execute(*plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].status().code(), StatusCode::kNotFound);
  EXPECT_LT(timer.ElapsedMicros(), 5e6);
  // The same status as the reference: the step after the last stored.
  ExpectBitExactRows(ReferenceResult(fx.server(), spec), result,
                     "huge range");
}

// ---------------------------------------------------------------------------
// Pinned-frame lifetime: readers hold the store's tiled frames, never a
// copy, so a reclaim that lands mid-read must leave every held frame
// alive and unchanged (use-after-free here fails the ASan+UBSan job).

/// Syncs (layer, t) frames, each with its plane, for every layer and
/// `steps` timesteps into a fresh generation: the generation is the
/// blocks' only owner, so dropping it frees whatever no reader pinned.
void StageSoleOwnerGeneration(const GatherFixture& fx, PredictionStore* store,
                              int64_t generation, int64_t t0,
                              int64_t steps) {
  for (int l = 1; l <= fx.ds.hierarchy().num_layers(); ++l) {
    for (int64_t t = t0; t < t0 + steps; ++t) {
      store->SyncFrameAt(generation, l, t, fx.ds.FrameAtLayer(t, l));
    }
  }
}

TEST(FrameLifetimeTest, GatherPinsSurviveConcurrentDropGeneration) {
  GatherFixture fx;
  const std::vector<int64_t>& test_steps = fx.pipeline->test_timesteps();
  const int64_t t0 = test_steps.front();
  const int64_t steps = static_cast<int64_t>(test_steps.size());
  PredictionStore store;
  RegionQueryServer server(&fx.ds.hierarchy(), &fx.pipeline->index(),
                           &store);
  QueryExecutor executor(&server);

  // Enough rows x steps that a plan runs long enough for a concurrent
  // reclaim to land at any point of it.
  std::vector<GridMask> regions;
  for (int copy = 0; copy < 16; ++copy) {
    for (const GridMask& region : fx.MixedRegions()) {
      regions.push_back(region);
    }
  }
  QuerySpec spec = QuerySpec::MultiRegion(regions, t0);
  spec.time = TimeSelector::Range(t0, t0 + steps - 1);
  spec.keep_series = true;
  auto plan = fx.planner().Plan(spec);
  ASSERT_TRUE(plan.ok());
  ResolvedQueryCache cache;
  QueryExecutorOptions options;
  options.cache = &cache;

  options.generation = 1;
  StageSoleOwnerGeneration(fx, &store, 1, t0, steps);
  Stopwatch baseline_timer;
  const QueryResult baseline = executor.Execute(*plan, options);
  const double execute_micros = baseline_timer.ElapsedMicros();
  for (const auto& row : baseline.rows) ASSERT_TRUE(row.ok());

  // Each trial drops a fresh generation after a delay spread across the
  // plan's run time. Rows whose frames were pinned before the drop must
  // answer with the baseline's exact bits; the rest fail NotFound —
  // never garbage, never a read of freed tiles.
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int64_t generation = 2 + trial;
    StageSoleOwnerGeneration(fx, &store, generation, t0, steps);
    options.generation = generation;
    std::atomic<bool> ready{false}, go{false};
    const double delay_micros = execute_micros * trial / kTrials;
    std::thread reclaimer([&] {
      ready.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      Stopwatch wait;
      while (wait.ElapsedMicros() < delay_micros) {
      }
      store.DropGeneration(generation);
    });
    while (!ready.load(std::memory_order_acquire)) {
    }
    go.store(true, std::memory_order_release);
    const QueryResult result = executor.Execute(*plan, options);
    reclaimer.join();
    ASSERT_EQ(result.rows.size(), baseline.rows.size());
    for (size_t i = 0; i < result.rows.size(); ++i) {
      if (!result.rows[i].ok()) {
        EXPECT_EQ(result.rows[i].status().code(), StatusCode::kNotFound);
        continue;
      }
      EXPECT_EQ(result.rows[i]->value, baseline.rows[i]->value);
      EXPECT_EQ(result.rows[i]->series, baseline.rows[i]->series);
    }
    EXPECT_EQ(store.NumFramesAt(generation), 0);
  }
}

// ---------------------------------------------------------------------------
// Plane storage + epoch lifecycle

/// The stored plane of (generation, layer, t) must equal a fresh
/// TiledSatPlane::Build of the stored frame, prefix for prefix.
void ExpectPlaneBuiltFromStoredFrame(const PredictionStore& store,
                                     int64_t generation, int layer,
                                     int64_t t) {
  auto stored = store.GetStoredFrameAt(generation, layer, t);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_NE(stored->frame, nullptr);
  ASSERT_NE(stored->plane, nullptr);
  const TiledSatPlane fresh = TiledSatPlane::Build(*stored->frame);
  const TiledSatPlane& plane = *stored->plane;
  ASSERT_EQ(plane.height(), fresh.height());
  ASSERT_EQ(plane.width(), fresh.width());
  for (int64_t r = 0; r <= plane.height(); ++r) {
    for (int64_t c = 0; c <= plane.width(); ++c) {
      ASSERT_EQ(plane.PrefixAt(r, c), fresh.PrefixAt(r, c))
          << "gen " << generation << " t " << t << " prefix " << r << ","
          << c;
    }
  }
}

// Every write path stores the frame with its plane, and the plane is
// the full build of the stored frame: SyncFrame, TrySyncFrameAt, and
// TrySyncFrameDeltaAt with a known dirty set, an unknown one and a
// missing base. An overwrite replaces both; a refused write keeps both.
TEST(SatPlaneStoreTest, EveryWriteStoresFrameWithItsPlane) {
  PredictionStore store;
  Rng rng(3);
  const Tensor small = Tensor::RandomNormal({4, 6}, &rng);
  store.SyncFrame(1, 12, small);
  ExpectPlaneBuiltFromStoredFrame(store, 0, 1, 12);
  ASSERT_TRUE(store.TrySyncFrameAt(7, 1, 12, small).ok());
  ExpectPlaneBuiltFromStoredFrame(store, 7, 1, 12);

  // The stored plane reads the exact sums of the snapped cells.
  auto plane = store.GetTiledSatPlaneAt(7, 1, 12);
  ASSERT_TRUE(plane.ok());
  const Tensor snapped = Snapped(small);
  for (int64_t r = 0; r <= 4; ++r) {
    for (int64_t c = 0; c <= 6; ++c) {
      ASSERT_EQ((*plane)->PrefixAt(r, c),
                BruteForceRectSum(snapped, 0, 0, r, c));
    }
  }
  EXPECT_EQ(store.GetTiledSatPlaneAt(7, 1, 99).status().code(),
            StatusCode::kNotFound);

  // Delta writes over a 3x3-tile frame: a known dirty set aliases the
  // base's clean plane locals; an unknown set or a missing base builds
  // the plane in full.
  const Tensor base = Tensor::RandomUniform({70, 90}, &rng, 0.0f, 9.0f);
  ASSERT_TRUE(store.TrySyncFrameAt(7, 2, 0, base).ok());
  ExpectPlaneBuiltFromStoredFrame(store, 7, 2, 0);
  Tensor next = base;
  for (int64_t r = 33; r < 37; ++r) {
    for (int64_t c = 60; c < 70; ++c) next.at(r, c) += 0.5f;
  }
  TileDirtySet dirty(70, 90);
  dirty.MarkRect(33, 60, 37, 70);
  PredictionStore::StageStats stats;
  ASSERT_TRUE(store.TrySyncFrameDeltaAt(7, 2, 1, next, 0, dirty, &stats).ok());
  EXPECT_GT(stats.plane_tiles_reused, 0);
  ExpectPlaneBuiltFromStoredFrame(store, 7, 2, 1);
  ASSERT_TRUE(
      store.TrySyncFrameDeltaAt(7, 2, 2, next, 1, TileDirtySet(), &stats)
          .ok());
  EXPECT_EQ(stats.plane_tiles_reused, 0);
  ExpectPlaneBuiltFromStoredFrame(store, 7, 2, 2);
  ASSERT_TRUE(store.TrySyncFrameDeltaAt(7, 2, 3, next, 50, dirty, &stats).ok());
  EXPECT_EQ(stats.plane_tiles_reused, 0);
  ExpectPlaneBuiltFromStoredFrame(store, 7, 2, 3);

  // An overwrite replaces frame and plane together.
  auto before = store.GetStoredFrameAt(7, 1, 12);
  ASSERT_TRUE(before.ok());
  store.SyncFrameAt(7, 1, 12, Tensor::Full({4, 6}, 9.0f));
  auto after = store.GetStoredFrameAt(7, 1, 12);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->frame, before->frame);
  EXPECT_NE(after->plane, before->plane);
  EXPECT_EQ(after->plane->RectSum(0, 0, 4, 6), 24 * 9.0);
  ExpectPlaneBuiltFromStoredFrame(store, 7, 1, 12);

  // A refused write stores nothing: the old pair stays.
  store.SetWriteFault(Status::IOError("store full"));
  EXPECT_EQ(store.TrySyncFrameAt(7, 1, 12, small).code(),
            StatusCode::kIOError);
  EXPECT_EQ(store.TrySyncFrameDeltaAt(7, 1, 12, small, 11, dirty).code(),
            StatusCode::kIOError);
  store.ClearWriteFault();
  auto kept = store.GetStoredFrameAt(7, 1, 12);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->frame, after->frame);
  EXPECT_EQ(kept->plane, after->plane);

  // DropGeneration reclaims every entry, frame and plane alike.
  EXPECT_EQ(store.NumFramesAt(7), 5);
  EXPECT_EQ(store.DropGeneration(7), 5);
  EXPECT_EQ(store.NumFramesAt(7), 0);
  EXPECT_EQ(store.GetTiledSatPlaneAt(7, 2, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(SatPlaneEpochTest, PlanesPublishReclaimAndCarryWithTheirEpoch) {
  PredictionStore store;
  ServingTelemetry telemetry;
  FrameEpochManager epochs(&store, &telemetry);

  auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen1 = staging.generation();
  staging.StageFrame(1, 0, Tensor::Full({4, 4}, 2.0f));
  // Staged planes exist only in the unpublished shadow generation.
  EXPECT_TRUE(store.GetTiledSatPlaneAt(gen1, 1, 0).ok());
  EXPECT_EQ(store.NumFramesAt(epochs.published_generation()), 0);
  epochs.Publish(std::move(staging));
  EXPECT_EQ(epochs.published_generation(), gen1);
  EXPECT_EQ(store.NumFramesAt(gen1), 1);
  EXPECT_EQ(telemetry.Snapshot().sat_planes_built, 1);

  // Carry-forward copies planes with frames into the next epoch.
  EpochGuard pinned = epochs.Pin();
  auto staging2 = epochs.BeginEpoch(/*carry_forward=*/true);
  const int64_t gen2 = staging2.generation();
  staging2.StageFrame(1, 1, Tensor::Full({4, 4}, 3.0f));
  epochs.Publish(std::move(staging2));
  EXPECT_EQ(store.NumFramesAt(gen2), 2);
  EXPECT_TRUE(store.GetTiledSatPlaneAt(gen2, 1, 0).ok());

  // The pinned epoch keeps frames AND planes until its last reader
  // unpins, then both reclaim with the generation.
  EXPECT_TRUE(store.GetTiledSatPlaneAt(gen1, 1, 0).ok());
  pinned.Release();
  EXPECT_EQ(store.GetTiledSatPlaneAt(gen1, 1, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.NumFramesAt(gen1), 0);

  // Re-staging a carried-forward timestep rebuilds its plane: the
  // carried plane sums the old frame, the re-staged one the new frame.
  auto staging3 = epochs.BeginEpoch(/*carry_forward=*/true);
  const int64_t gen3 = staging3.generation();
  auto carried = store.GetTiledSatPlaneAt(gen3, 1, 1);
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ((*carried)->RectSum(0, 0, 4, 4), 16 * 3.0);
  staging3.StageFrame(1, 1, Tensor::Full({4, 4}, 5.0f));
  auto restaged = store.GetTiledSatPlaneAt(gen3, 1, 1);
  ASSERT_TRUE(restaged.ok());
  EXPECT_NE(restaged->get(), carried->get());
  EXPECT_EQ((*restaged)->RectSum(0, 0, 4, 4), 16 * 5.0);
  EXPECT_EQ((*restaged)->RectSum(1, 1, 3, 4), 6 * 5.0);
  epochs.Publish(std::move(staging3));
  EXPECT_EQ(store.NumFramesAt(gen3), 2);
}

// The plane-publish hammer (raced under TSan in CI): a writer publishes
// marker epochs in a loop, staging the plane of every frame; readers pin
// an epoch and answer rect-heavy specs through it. A plane observable
// before its epoch publishes, missing for a pinned epoch, or torn across
// generations breaks the arithmetic identity value == |region| * marker.
TEST(SatPlaneEpochTest, HammerPinnedEpochsNeverObserveTornPlanes) {
  const STDataset dataset = TinyDataset(31);
  const Hierarchy& hierarchy = dataset.hierarchy();
  const int n_layers = hierarchy.num_layers();
  OraclePredictor oracle({}, 32);
  auto pipeline = MauPipeline::Build(&oracle, dataset, SearchOptions{});

  PredictionStore store;
  FrameEpochManager epochs(&store);
  RegionQueryServer server(&hierarchy, &pipeline->index(), &store);
  QueryPlanner planner(&hierarchy);
  QueryExecutor executor(&server);

  // Rect-heavy regions: the interpreter leans on plane reads for these.
  std::vector<GridMask> regions;
  const int64_t rects[][4] = {{0, 0, 8, 8}, {1, 1, 7, 6}, {2, 3, 5, 8},
                              {0, 4, 4, 8}, {3, 0, 8, 3}};
  for (const auto& r : rects) {
    GridMask region(8, 8);
    region.FillRect(r[0], r[1], r[2], r[3]);
    regions.push_back(region);
  }
  std::vector<double> region_cells;
  for (const GridMask& region : regions) {
    region_cells.push_back(static_cast<double>(region.Count()));
  }
  auto plan = planner.Plan(QuerySpec::MultiRegion(regions, 0));
  ASSERT_TRUE(plan.ok());

  const auto publish_marker_epoch = [&] {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    const float marker = static_cast<float>(staging.generation());
    const Tensor atomic = Tensor::Full({8, 8}, marker);
    for (int l = 1; l <= n_layers; ++l) {
      staging.StageFrame(l, 0, hierarchy.AggregateToLayer(atomic, l));
    }
    epochs.Publish(std::move(staging));
  };
  publish_marker_epoch();

  constexpr int kEpochs = 80;
  constexpr int kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> reads_checked{0};

  std::thread writer([&] {
    for (int i = 0; i < kEpochs; ++i) publish_marker_epoch();
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        QueryExecutorOptions exec_options;
        exec_options.generation = guard.generation();
        const QueryResult result = executor.Execute(*plan, exec_options);
        const double marker = static_cast<double>(guard.generation());
        for (size_t i = 0; i < result.rows.size(); ++i) {
          ASSERT_TRUE(result.rows[i].ok())
              << "reader " << r << ": "
              << result.rows[i].status().ToString();
          const double expected = region_cells[i] * marker;
          if (std::abs(result.rows[i]->value - expected) >
              1e-6 * (1.0 + std::abs(expected))) {
            torn_reads.fetch_add(1);
          }
          reads_checked.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(reads_checked.load(), kReaders * 5);
  // Superseded epochs reclaimed frames and planes alike.
  EXPECT_EQ(epochs.live_epochs(), 1);
  const int64_t published = epochs.published_generation();
  EXPECT_EQ(store.NumFramesAt(published), n_layers);
}

}  // namespace
}  // namespace one4all
