// Tests for the online serving runtime (src/serve): epoch-versioned
// frame publication, rolling-window ingestion, admission control,
// telemetry — and the concurrency hammer asserting that readers never
// observe torn epochs while a writer publishes in a loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "model/one4all_net.h"
#include "serve/serving_runtime.h"
#include "test_util.h"

namespace one4all {
namespace {

// Small serving fixture: a 16x16 raster with a short temporal spec so
// history windows fit in a few dozen timesteps, plus an offline-built
// index (MauPipeline over the history-mean baseline).
struct ServeFixture {
  // Heap-held so MauPipeline's retained dataset pointer stays valid when
  // the fixture is returned by value.
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  static ServeFixture Make(uint64_t seed = 11) {
    SyntheticDataOptions data_options;
    data_options.height = 16;
    data_options.width = 16;
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

    Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 16);
    auto dataset =
        STDataset::Create(flows.MoveValueUnsafe(), hierarchy, spec);
    EXPECT_TRUE(dataset.ok());

    ServeFixture fixture;
    fixture.dataset =
        std::make_unique<STDataset>(dataset.MoveValueUnsafe());
    HistoryMeanPredictor hm;
    fixture.pipeline =
        MauPipeline::Build(&hm, *fixture.dataset, SearchOptions{});

    RegionGeneratorOptions region_options;
    region_options.style = RegionStyle::kVoronoi;
    region_options.mean_cells = 10.0;
    region_options.seed = 23;
    fixture.regions = GenerateRegions(16, 16, region_options);
    EXPECT_GE(fixture.regions.size(), 4u);
    return fixture;
  }

  ServingRuntimeOptions RuntimeOptions() const {
    ServingRuntimeOptions options;
    options.ingest.start_t = dataset->test_indices().front();
    options.ingest.num_timesteps =
        static_cast<int64_t>(dataset->test_indices().size());
    return options;
  }
};

// ---------------------------------------------------------------------------
// FrameEpochManager

TEST(FrameEpochManagerTest, PublishIsAtomicAndPinnedEpochsSurvive) {
  PredictionStore store;
  FrameEpochManager epochs(&store);
  EXPECT_EQ(epochs.published_generation(), 0);
  EXPECT_EQ(epochs.published_latest_t(), -1);

  auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen1 = staging.generation();
  staging.StageFrame(1, 0, Tensor::Full({4, 4}, 1.0f));
  // Staged but unpublished: invisible to the published generation.
  EXPECT_FALSE(store.HasFrameAt(epochs.published_generation(), 1, 0));
  epochs.Publish(std::move(staging));
  EXPECT_EQ(epochs.published_generation(), gen1);
  EXPECT_EQ(epochs.published_latest_t(), 0);

  EpochGuard pinned = epochs.Pin();
  EXPECT_EQ(pinned.generation(), gen1);

  // Publish a second epoch while the first is pinned.
  auto staging2 = epochs.BeginEpoch(/*carry_forward=*/false);
  const int64_t gen2 = staging2.generation();
  staging2.StageFrame(1, 1, Tensor::Full({4, 4}, 2.0f));
  epochs.Publish(std::move(staging2));
  EXPECT_EQ(epochs.published_generation(), gen2);

  // The pinned epoch's frames must survive its supersession...
  EXPECT_TRUE(store.HasFrameAt(gen1, 1, 0));
  EXPECT_EQ(epochs.live_epochs(), 2);
  // ...and be reclaimed once the last reader lets go.
  pinned.Release();
  EXPECT_FALSE(store.HasFrameAt(gen1, 1, 0));
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_TRUE(store.HasFrameAt(gen2, 1, 1));
}

TEST(FrameEpochManagerTest, CarryForwardExtendsTheServedWindow) {
  PredictionStore store;
  FrameEpochManager epochs(&store);

  auto first = epochs.BeginEpoch(false);
  first.StageFrame(1, 0, Tensor::Full({2, 2}, 10.0f));
  epochs.Publish(std::move(first));

  auto second = epochs.BeginEpoch(/*carry_forward=*/true);
  second.StageFrame(1, 1, Tensor::Full({2, 2}, 11.0f));
  epochs.Publish(std::move(second));

  const int64_t gen = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 1);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 1, 0, 0), 11.0f);
  // Only the published epoch holds frames; its predecessor was dropped.
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(store.NumFramesAt(gen), 2);
}

TEST(FrameEpochManagerTest, RetentionHorizonBoundsCarriedFrames) {
  PredictionStore store;
  FrameEpochManagerOptions options;
  options.retain_timesteps = 2;
  FrameEpochManager epochs(&store, nullptr, options);

  for (int64_t t = 0; t < 4; ++t) {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
    staging.StageFrame(1, t, Tensor::Full({2, 2}, static_cast<float>(t)));
    epochs.Publish(std::move(staging));
  }

  const int64_t gen = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 3);
  // Only the horizon's 2 newest timesteps were carried forward.
  EXPECT_EQ(store.NumFramesAt(gen), 2);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 3, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen, 1, 2, 0, 0), 2.0f);
  EXPECT_EQ(store.TryGetValueAt(gen, 1, 1, 0, 0).status().code(),
            StatusCode::kNotFound);

  // The horizon holds even when a writer stages several timesteps into
  // one epoch (enforced at publish, not just by the carry-forward trim).
  auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
  staging.StageFrame(1, 4, Tensor::Full({2, 2}, 4.0f));
  staging.StageFrame(1, 5, Tensor::Full({2, 2}, 5.0f));
  epochs.Publish(std::move(staging));
  const int64_t gen2 = epochs.published_generation();
  EXPECT_EQ(epochs.published_latest_t(), 5);
  EXPECT_EQ(store.NumFramesAt(gen2), 2);
  EXPECT_EQ(store.TryGetValueAt(gen2, 1, 3, 0, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_FLOAT_EQ(*store.TryGetValueAt(gen2, 1, 4, 0, 0), 4.0f);
}

TEST(FrameEpochManagerTest, AbortedStagingLeavesNoFrames) {
  PredictionStore store;
  FrameEpochManager epochs(&store);
  int64_t gen = 0;
  {
    auto staging = epochs.BeginEpoch(false);
    gen = staging.generation();
    staging.StageFrame(1, 0, Tensor::Full({2, 2}, 5.0f));
    // Dropped without Publish: the destructor aborts it.
  }
  EXPECT_EQ(store.NumFramesAt(gen), 0);
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(epochs.published_generation(), 0);
}

// The epoch hammer: a writer re-publishes the full frame set in a loop
// with per-epoch marker values; concurrent readers pin an epoch, answer
// region queries through it, and verify every answer is consistent with
// exactly the pinned epoch (any torn read across generations breaks the
// arithmetic identity value == |region| * marker).
TEST(FrameEpochManagerTest, HammerReadersNeverObserveTornEpochs) {
  ServeFixture fixture = ServeFixture::Make();
  const Hierarchy& hierarchy = fixture.dataset->hierarchy();
  const int n_layers = hierarchy.num_layers();

  PredictionStore store;
  FrameEpochManager epochs(&store);
  RegionQueryServer server(&hierarchy, &fixture.pipeline->index(), &store);

  // Region cell counts for the identity check.
  std::vector<double> region_cells;
  for (const GridMask& region : fixture.regions) {
    region_cells.push_back(static_cast<double>(region.Count()));
  }

  const auto publish_marker_epoch = [&]() -> int64_t {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    const float marker = static_cast<float>(staging.generation());
    Tensor atomic = Tensor::Full({16, 16}, marker);
    for (int l = 1; l <= n_layers; ++l) {
      staging.StageFrame(l, 0, hierarchy.AggregateToLayer(atomic, l));
    }
    const int64_t generation = staging.generation();
    epochs.Publish(std::move(staging));
    return generation;
  };
  publish_marker_epoch();

  constexpr int kEpochs = 120;
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
      std::vector<BatchQuery> batch;
      for (const GridMask& region : fixture.regions) {
        batch.push_back(BatchQuery{region, 0});
      }
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        BatchOptions options;
        options.num_threads = 1;
        options.generation = guard.generation();
        const auto results = server.BatchPredict(
            batch, QueryStrategy::kUnionSubtraction, options);
        const double marker = static_cast<double>(guard.generation());
        for (size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(results[i].ok())
              << "reader " << r << ": " << results[i].status().ToString();
          const double expected = region_cells[i] * marker;
          if (std::abs(results[i].ValueOrDie().value - expected) >
              1e-3 * (1.0 + std::abs(expected))) {
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
  // Every superseded epoch is eventually reclaimed: only the published
  // one (plus nothing pinned) holds frames.
  EXPECT_EQ(epochs.live_epochs(), 1);
  EXPECT_EQ(store.NumFramesAt(epochs.published_generation()),
            n_layers);
}

// ---------------------------------------------------------------------------
// RollingWindow / serving inference

TEST(RollingWindowTest, MatchesDatasetBuiltInput) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  RollingWindow window(dataset.spec(), dataset.StatsOfLayer(1));

  const int64_t t = dataset.test_indices().front();
  for (int64_t h = t - dataset.spec().MinHistory(); h <= t; ++h) {
    window.Push(h, dataset.FrameAtLayer(h, 1));
  }
  ASSERT_TRUE(window.Ready(t));
  auto input = window.AssembleInput(t);
  ASSERT_TRUE(input.ok());

  const TemporalInput expected = dataset.BuildInput({t});
  EXPECT_TRUE(input->closeness.AllClose(expected.closeness));
  EXPECT_TRUE(input->period.AllClose(expected.period));
  EXPECT_TRUE(input->trend.AllClose(expected.trend));
}

TEST(RollingWindowTest, EvictsFramesOutsideEveryWindow) {
  TemporalFeatureSpec spec;
  spec.closeness_len = 2;
  spec.period_len = 2;
  spec.trend_len = 1;
  spec.daily_interval = 4;
  spec.weekly_interval = 8;
  RollingWindow window(spec, ScaleStats{0.0f, 1.0f});
  for (int64_t t = 0; t < 40; ++t) {
    window.Push(t, Tensor::Full({2, 2}, static_cast<float>(t)));
  }
  // Only [t - MinHistory, t] = 9 frames may remain buffered.
  EXPECT_EQ(window.buffered_frames(), 9u);
  EXPECT_TRUE(window.Ready(39));
  EXPECT_FALSE(window.Ready(20));
  EXPECT_EQ(window.AssembleInput(20).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(One4AllNetTest, InferServingFramesMatchesPredictAllLayers) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  One4AllNetOptions net_options;
  net_options.channels = 4;
  One4AllNet net(dataset.hierarchy(), dataset.spec(), net_options);

  const int64_t t = dataset.test_indices().front();
  const std::vector<Tensor> batch_preds = net.PredictAllLayers(dataset, {t});
  const std::vector<Tensor> serving =
      net.InferServingFrames(dataset.BuildInput({t}), dataset);
  ASSERT_EQ(serving.size(), batch_preds.size());
  for (size_t l = 0; l < serving.size(); ++l) {
    ASSERT_EQ(serving[l].ndim(), 2u);
    EXPECT_EQ(serving[l].dim(0), batch_preds[l].dim(2));
    EXPECT_EQ(serving[l].dim(1), batch_preds[l].dim(3));
    EXPECT_TRUE(
        serving[l].AllClose(batch_preds[l].Reshape(
            {serving[l].dim(0), serving[l].dim(1)})));
  }
}

// ---------------------------------------------------------------------------
// StreamIngestor / ServingRuntime

TEST(StreamIngestorTest, PublishesEveryConfiguredTimestep) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 5;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().WaitUntilDone();
  EXPECT_TRUE(runtime.ingestor().status().ok());
  EXPECT_EQ(runtime.ingestor().steps_published(), 5);

  const int64_t start = options.ingest.start_t;
  EXPECT_EQ(runtime.published_latest_t(), start + 4);
  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.epochs_published, 5);
  EXPECT_EQ(snapshot.frames_staged,
            5 * fixture.dataset->hierarchy().num_layers());

  // Carry-forward keeps the whole published window queryable...
  auto early = runtime.Query(fixture.regions[0], start);
  ASSERT_TRUE(early.ok());
  auto latest = runtime.Query(fixture.regions[0], start + 4);
  ASSERT_TRUE(latest.ok());
  // ...while a timestep beyond the stream degrades to NotFound instead
  // of aborting the process.
  auto beyond = runtime.Query(fixture.regions[0], start + 5);
  EXPECT_EQ(beyond.status().code(), StatusCode::kNotFound);
}

TEST(ServingRuntimeTest, AdmissionControlRejectsOverload) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 4;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);

  std::vector<BatchQuery> oversized(
      8, BatchQuery{fixture.regions[0], options.ingest.start_t});
  auto rejected = runtime.QueryBatch(oversized);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  std::vector<BatchQuery> admitted(
      2, BatchQuery{fixture.regions[0], options.ingest.start_t});
  auto accepted = runtime.QueryBatch(admitted);
  EXPECT_TRUE(accepted.ok());

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 1);
  EXPECT_EQ(snapshot.queries_rejected, 8);
  EXPECT_EQ(snapshot.batches_admitted, 1);
}

// The serving hammer of the issue: concurrent readers issue BatchPredict
// storms while the ingestor publishes epochs in a loop; every answered
// query must be internally consistent (with ground-truth inference and
// exact-cover combinations, value == region truth for that timestep),
// and the concurrent totals must match a sequential replay.
TEST(ServingRuntimeTest, HammerConcurrentQueriesDuringEpochRolls) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 1 << 20;
  // Pace the roll so the query storm genuinely overlaps epoch publishes.
  options.ingest.min_publish_interval_ms = 2;
  ServingRuntime runtime(&dataset.hierarchy(), &fixture.pipeline->index(),
                         &dataset, MakeGroundTruthInference(&dataset),
                         options);

  const int64_t start = options.ingest.start_t;
  const int64_t steps = options.ingest.num_timesteps;

  struct LoggedQuery {
    size_t region = 0;
    int64_t t = 0;
    double value = 0.0;
  };
  constexpr int kClients = 3;
  std::vector<std::vector<LoggedQuery>> logs(kClients);
  std::atomic<int64_t> inconsistent{0};

  runtime.Start();
  ASSERT_TRUE(runtime.ingestor().WaitUntilPublished(start));

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(1000 + c));
      int rounds = 0;
      while (!runtime.ingestor().done() || rounds < 20) {
        ++rounds;
        // Query any timestep the currently published epoch serves.
        const int64_t latest = runtime.published_latest_t();
        std::vector<BatchQuery> batch;
        std::vector<size_t> batch_regions;
        for (int i = 0; i < 8; ++i) {
          const size_t region = static_cast<size_t>(
              rng.UniformInt(fixture.regions.size()));
          const int64_t span = latest - start + 1;
          const int64_t t = start + static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(span)));
          batch.push_back(BatchQuery{fixture.regions[region], t});
          batch_regions.push_back(region);
        }
        auto results = runtime.QueryBatch(batch);
        ASSERT_TRUE(results.ok());
        for (size_t i = 0; i < results->size(); ++i) {
          const auto& result = (*results)[i];
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          const double truth =
              RegionTruth(dataset, batch[i].region, batch[i].t);
          if (std::abs(result.ValueOrDie().value - truth) >
              1e-3 * (1.0 + std::abs(truth))) {
            inconsistent.fetch_add(1);
          }
          logs[static_cast<size_t>(c)].push_back(LoggedQuery{
              batch_regions[i], batch[i].t,
              result.ValueOrDie().value});
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  runtime.ingestor().WaitUntilDone();
  ASSERT_TRUE(runtime.ingestor().status().ok());
  EXPECT_EQ(runtime.ingestor().steps_published(), steps);

  EXPECT_EQ(inconsistent.load(), 0);

  // Sequential replay against the final epoch: every concurrently
  // answered query must reproduce bit-for-bit.
  int64_t replayed = 0;
  for (const auto& log : logs) {
    for (const LoggedQuery& q : log) {
      auto replay = runtime.Query(fixture.regions[q.region], q.t);
      ASSERT_TRUE(replay.ok());
      EXPECT_NEAR(replay.ValueOrDie().value, q.value,
                  1e-9 * (1.0 + std::abs(q.value)));
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0);

  // Epoch rolls are time-only: the resolve cache must have survived all
  // of them (resolution is time-independent) and actually produced hits.
  const auto cache_stats = runtime.shards().CacheStats();
  EXPECT_EQ(cache_stats.invalidations, 0);
  EXPECT_GT(cache_stats.hits, 0);
  EXPECT_GT(cache_stats.size, 0u);
  EXPECT_GT(cache_stats.hit_rate(), 0.0);

  // A topology swap is the one event that clears it.
  runtime.SwapIndex(&fixture.pipeline->index());
  const auto after_swap = runtime.shards().CacheStats();
  EXPECT_EQ(after_swap.invalidations, 1);
  EXPECT_EQ(after_swap.size, 0u);

  // All superseded epochs were reclaimed once unpinned.
  EXPECT_EQ(runtime.shards().max_live_epochs(), 1);
  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.epochs_published, steps);
  EXPECT_EQ(snapshot.epochs_reclaimed, steps - 1 + 1);  // + generation 0
  EXPECT_GT(snapshot.queries_served, 0);
  EXPECT_EQ(snapshot.queries_rejected, 0);
  EXPECT_GT(snapshot.query_p99_micros, 0.0);
}

// ---------------------------------------------------------------------------
// Fault paths: the injectable seams the scenario harness drives

// An over-budget spec is refused whole with ResourceExhausted — never a
// crash, never a partial result — and the runtime keeps serving
// correctly afterwards.
TEST(ServingRuntimeTest, SpecRejectionIsResourceExhaustedNotACrash) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.max_inflight_queries = 8;
  options.ingest.num_timesteps = 4;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().WaitUntilDone();
  const int64_t start = options.ingest.start_t;

  // 1 region x 9 timesteps = cost 9 > budget 8.
  auto rejected = runtime.ExecuteSpec(QuerySpec::TimeRange(
      fixture.regions[0], start, start + 8, TimeAggregation::kSum,
      QueryStrategy::kUnionSubtraction));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The rejection released nothing it didn't claim: a within-budget spec
  // still runs and still matches the oracle.
  auto accepted = runtime.ExecuteSpec(QuerySpec::PointInTime(
      fixture.regions[0], start, QueryStrategy::kUnionSubtraction));
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(accepted->rows.size(), 1u);
  ASSERT_TRUE(accepted->rows[0].ok());
  const double truth =
      RegionTruth(*fixture.dataset, fixture.regions[0], start);
  EXPECT_NEAR(accepted->rows[0].ValueOrDie().value, truth,
              1e-3 * (1.0 + std::abs(truth)));

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 1);
  EXPECT_EQ(snapshot.queries_rejected, 1);  // rejected != crashed
}

// A slow reader pinning an old epoch keeps that generation's frames AND
// its SAT planes readable while newer epochs publish and the retention
// horizon reclaims everything unpinned.
TEST(ServingRuntimeTest, PinnedEpochSurvivesPublishesAndReclamation) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 6;
  options.ingest.manual_stepping = true;
  options.retain_timesteps = 2;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));

  // The slow reader pins the first published epoch...
  ShardPinSet pinned = runtime.shards().PinAll();
  ASSERT_TRUE(pinned.pinned());
  const int64_t start = options.ingest.start_t;
  EXPECT_EQ(pinned.latest_t(), start);
  const int64_t generation = pinned.generation(0);

  // ...while the stream races five more epochs past it.
  runtime.ingestor().GrantSteps(5);
  runtime.ingestor().WaitUntilDone();
  EXPECT_EQ(runtime.published_latest_t(), start + 5);
  EXPECT_GE(runtime.Telemetry().epochs_reclaimed, 1);

  // The pinned generation stayed fully readable: frame and SAT plane at
  // its newest timestep, even though the live window has moved on.
  const PredictionStore& store = runtime.shards().shard(0).store;
  EXPECT_TRUE(store.HasFrameAt(generation, 1, start));
  EXPECT_TRUE(store.HasSatPlaneAt(generation, 1, start));
  auto frame = store.GetFrameAt(generation, 1, start);
  ASSERT_TRUE(frame.ok());

  // Released, the stale generation is reclaimed down to one live epoch.
  pinned.Release();
  runtime.Stop();
  EXPECT_FALSE(store.HasFrameAt(generation, 1, start));
  EXPECT_EQ(runtime.shards().max_live_epochs(), 1);
}

// Incremental top-k: a subscribed spec (same regions, advancing point
// timestep) goes through the memo — a same-timestep re-issue reuses
// every row, and the post-publish re-issue must rank bit-identically
// to a cold evaluation whatever mix of reuse and re-gather it took.
TEST(ServingRuntimeTest, TopKSubscriptionReusesRowsAndStaysExact) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 3;
  options.ingest.manual_stepping = true;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
  const int64_t t0 = options.ingest.start_t;
  const int k = 3;

  auto first = runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0, k));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), 0);

  // Same spec, same timestep, no publish in between: every row reuses.
  auto again = runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0, k));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(),
            static_cast<int64_t>(fixture.regions.size()));
  ASSERT_EQ(again->rows.size(), first->rows.size());
  EXPECT_EQ(again->top_k, first->top_k);
  for (size_t i = 0; i < first->rows.size(); ++i) {
    ASSERT_TRUE(first->rows[i].ok());
    ASSERT_TRUE(again->rows[i].ok());
    EXPECT_EQ(again->rows[i]->value, first->rows[i]->value);
  }

  // Advance the subscription one publish: the merged (reused + freshly
  // gathered) ranking must be bit-identical to a cold evaluation of the
  // same spec with the memo wiped.
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  auto warm =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(warm.ok());
  runtime.topk_memo().Invalidate();
  auto cold =
      runtime.ExecuteSpec(QuerySpec::TopK(fixture.regions, t0 + 1, k));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->rows.size(), cold->rows.size());
  EXPECT_EQ(warm->top_k, cold->top_k);
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    ASSERT_TRUE(cold->rows[i].ok());
    ASSERT_TRUE(warm->rows[i].ok());
    EXPECT_EQ(warm->rows[i]->value, cold->rows[i]->value);
  }
  runtime.Stop();
}

// The copy-on-write hammer (raced under TSan in CI): a writer publishes
// carry-forward epochs in a loop, delta-staging each timestep so clean
// tiles alias the previous generation's blocks; readers pin epochs and
// sum whole frames through them while superseded generations reclaim
// underneath. Because reclamation is a refcount drop — never a free of
// a block some live generation still aliases — every pinned read must
// see exactly the deterministic frame its timestep was staged with.
TEST(FrameEpochManagerTest, HammerCowSharedTilesSurvivePinAndReclaim) {
  constexpr int64_t kH = 64, kW = 64;
  constexpr int kSteps = 60;
  constexpr int kReaders = 3;

  // Deterministic frame sequence: start all-ones, each step t stamps the
  // value t into one rotating 8x16 rect. Precompute every frame's total
  // so readers can verify sums without holding the writer's state.
  std::vector<double> expected_sum(kSteps + 1);
  std::vector<Tensor> frames;
  {
    Tensor frame = Tensor::Full({kH, kW}, 1.0f);
    for (int t = 0; t <= kSteps; ++t) {
      if (t > 0) {
        const int64_t r0 = (static_cast<int64_t>(t) * 8) % kH;
        const int64_t c0 = (static_cast<int64_t>(t) * 16) % kW;
        for (int64_t r = r0; r < r0 + 8; ++r) {
          for (int64_t c = c0; c < c0 + 16; ++c) {
            frame.data()[r * kW + c] = static_cast<float>(t);
          }
        }
      }
      double sum = 0.0;
      for (int64_t i = 0; i < frame.numel(); ++i) sum += frame.data()[i];
      expected_sum[t] = sum;
      frames.push_back(frame);
    }
  }

  PredictionStore store;
  ServingTelemetry telemetry;
  FrameEpochManagerOptions epoch_options;
  // 2 is the tightest horizon that still carries the t-1 CoW base into
  // each staging (1 would carry nothing and delta-stage fresh).
  epoch_options.retain_timesteps = 2;
  FrameEpochManager epochs(&store, &telemetry, epoch_options);

  // Seed t=0 fully fresh so every later step has a CoW base.
  {
    auto staging = epochs.BeginEpoch(/*carry_forward=*/false);
    staging.StageFrame(1, 0, frames[0]);
    epochs.Publish(std::move(staging));
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> bad_reads{0};
  std::atomic<int64_t> reads_checked{0};

  std::thread writer([&] {
    for (int t = 1; t <= kSteps; ++t) {
      const int64_t r0 = (static_cast<int64_t>(t) * 8) % kH;
      const int64_t c0 = (static_cast<int64_t>(t) * 16) % kW;
      TileDirtySet dirty(kH, kW);
      dirty.MarkRect(r0, c0, r0 + 8, c0 + 16);
      auto staging = epochs.BeginEpoch(/*carry_forward=*/true);
      ASSERT_TRUE(staging.TryStageFrame(1, t, frames[t], &dirty).ok());
      epochs.Publish(std::move(staging));
    }
    writer_done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        const int64_t t = guard.latest_t();
        auto frame = store.GetFrameAt(guard.generation(), 1, t);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        double sum = 0.0;
        for (int64_t i = 0; i < frame->numel(); ++i) sum += frame->data()[i];
        if (sum != expected_sum[t]) bad_reads.fetch_add(1);
        reads_checked.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GE(reads_checked.load(), kReaders * 5);
  EXPECT_EQ(epochs.live_epochs(), 1);
  // The whole run really went through the CoW path: out of the 32 tiles
  // per frame, each step copied 1-2 and aliased the rest.
  const auto snapshot = telemetry.Snapshot();
  EXPECT_GT(snapshot.cow_shared_tiles, snapshot.stage_dirty_tiles);
  EXPECT_GT(snapshot.stage_dirty_tiles, 0);
}

// A store refusing writes must not kill the ingest thread: each refused
// publish is absorbed (counted, staging dropped whole), the same
// timestep retries, and ingestion resumes when the injector clears.
TEST(StreamIngestorTest, SurvivesStoreWriteRefusalAndResumes) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 5;
  options.ingest.manual_stepping = true;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(2);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  EXPECT_EQ(runtime.ingestor().steps_published(), 2);

  runtime.shards().SetWriteFault(
      Status::IOError("injected: store refusing writes"));
  runtime.ingestor().GrantSteps(3);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(5));

  // Three attempts were refused: nothing new published, the failures are
  // counted, the thread is alive (not done) and reports the refusal.
  EXPECT_EQ(runtime.ingestor().steps_published(), 2);
  EXPECT_FALSE(runtime.ingestor().done());
  EXPECT_TRUE(runtime.ingestor().status().ok());  // not a fatal error
  EXPECT_EQ(runtime.ingestor().last_publish_error().code(),
            StatusCode::kIOError);
  EXPECT_EQ(runtime.Telemetry().publish_failures, 3);
  // No torn epoch: the published window still ends at the pre-fault t.
  EXPECT_EQ(runtime.published_latest_t(),
            options.ingest.start_t + 1);

  // Injector clears: the refused timestep retries and the stream
  // finishes every configured step.
  runtime.shards().ClearWriteFault();
  runtime.ingestor().GrantSteps(3);
  runtime.ingestor().WaitUntilDone();
  EXPECT_EQ(runtime.ingestor().steps_published(), 5);
  EXPECT_TRUE(runtime.ingestor().last_publish_error().ok());
  EXPECT_EQ(runtime.published_latest_t(),
            options.ingest.start_t + 4);
  EXPECT_TRUE(runtime.ingestor().status().ok());
}

// ---------------------------------------------------------------------------
// Telemetry / cache units

TEST(LatencyHistogramTest, PercentilesAndMean) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.PercentileMicros(0.5), 0.0);
  for (int i = 0; i < 99; ++i) histogram.Record(10.0);
  histogram.Record(100000.0);
  EXPECT_EQ(histogram.count(), 100);
  const double p50 = histogram.PercentileMicros(0.50);
  const double p99 = histogram.PercentileMicros(0.99);
  const double p999 = histogram.PercentileMicros(0.999);
  EXPECT_GT(p50, 5.0);
  EXPECT_LT(p50, 20.0);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p999, 50000.0);
  EXPECT_NEAR(histogram.MeanMicros(), (99 * 10.0 + 100000.0) / 100.0,
              1.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
}

TEST(ResolvedQueryCacheTest, HitRateAndInvalidate) {
  ResolvedQueryCache cache;
  RegionFingerprint key{1, 2};
  EXPECT_EQ(cache.Stats().hit_rate(), 0.0);
  EXPECT_EQ(cache.Get(key), nullptr);  // miss
  cache.Put(key, std::make_shared<const ResolvedQuery>());
  EXPECT_NE(cache.Get(key), nullptr);  // hit
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(stats.invalidations, 0);

  cache.Invalidate();
  const auto after = cache.Stats();
  EXPECT_EQ(after.size, 0u);
  EXPECT_EQ(after.invalidations, 1);
  // Monotonic counters survive the clear.
  EXPECT_EQ(after.hits, 1);
}

}  // namespace
}  // namespace one4all
