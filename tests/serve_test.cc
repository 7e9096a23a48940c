// Tests for the online serving runtime (src/serve): epoch-versioned
// frame publication, rolling-window ingestion, admission control,
// telemetry — and the concurrency hammer asserting that readers never
// observe torn epochs while a writer publishes in a loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "obs/trace_export.h"
#include "serve/serving_runtime.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::ExpectBitExactRows;
using testing::MaterializedFrameAt;

// Small serving fixture: a 16x16 raster with a short temporal spec so
// history windows fit in a few dozen timesteps, plus an offline-built
// index (MauPipeline over the history-mean baseline).
struct ServeFixture {
  // Heap-held so MauPipeline's retained dataset pointer stays valid when
  // the fixture is returned by value.
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  /// \param side Raster side. 16 keeps every layer one 32x32 dirty
  /// tile; 64 gives the atomic layer 2x2 tiles, so churn can spare part
  /// of the raster.
  static ServeFixture Make(uint64_t seed = 11, int64_t side = 16) {
    SyntheticDataOptions data_options;
    data_options.height = side;
    data_options.width = side;
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

    Hierarchy hierarchy = Hierarchy::Uniform(side, side, 2, 16);
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
    region_options.mean_cells = 10.0 * static_cast<double>(side / 16);
    region_options.seed = 23;
    fixture.regions = GenerateRegions(side, side, region_options);
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

/// \brief One region's value at `t` through the runtime's one entry
/// point: a spec-level or row-level failure surfaces as the Status.
Result<double> PointValue(ServingRuntime& runtime, const GridMask& region,
                          int64_t t) {
  O4A_ASSIGN_OR_RETURN(QueryResult result,
                       runtime.ExecuteSpec(QuerySpec::PointInTime(region, t)));
  O4A_ASSIGN_OR_RETURN(const QueryRow row, std::move(result.rows[0]));
  return row.value;
}

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
      auto plan = QueryPlanner(&hierarchy).Plan(
          QuerySpec::MultiRegion(fixture.regions, 0));
      ASSERT_TRUE(plan.ok());
      int rounds = 0;
      while (!writer_done.load() || rounds < 5) {
        ++rounds;
        EpochGuard guard = epochs.Pin();
        QueryExecutorOptions options;
        options.generation = guard.generation();
        const std::vector<Result<QueryRow>> results =
            QueryExecutor(&server).Execute(*plan, options).rows;
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

// Two threads serve through one FrameInference (and its buffer pool)
// while a third trains another net. The no-tape scope is per thread, so
// training keeps its tape, and every served frame matches the serial run.
TEST(One4AllNetTest, ConcurrentInferenceBesideTrainingMatchesSerial) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  One4AllNetOptions net_options;
  net_options.channels = 4;
  const One4AllNet net(dataset.hierarchy(), dataset.spec(), net_options);
  net_options.seed = 9;
  One4AllNet trained(dataset.hierarchy(), dataset.spec(), net_options);

  std::vector<int64_t> ts;
  std::vector<TemporalInput> inputs;
  std::vector<std::vector<Tensor>> expected;
  for (size_t i = 0; i < 6; ++i) {
    ts.push_back(dataset.test_indices()[i]);
    inputs.push_back(dataset.BuildInput({ts.back()}));
    expected.push_back(net.InferServingFrames(inputs.back(), dataset));
  }

  const FrameInference inference = MakeOne4AllInference(&net, &dataset);
  std::atomic<int> mismatches{0};
  auto serve = [&] {
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < ts.size(); ++i) {
        Result<std::vector<Tensor>> frames = inference(ts[i], inputs[i]);
        if (!frames.ok() || frames->size() != expected[i].size()) {
          ++mismatches;
          continue;
        }
        for (size_t l = 0; l < frames->size(); ++l) {
          const Tensor& got = (*frames)[l];
          const Tensor& want = expected[i][l];
          if (got.shape() != want.shape() ||
              std::memcmp(got.data(), want.data(),
                          sizeof(float) * want.numel()) != 0) {
            ++mismatches;
          }
        }
      }
    }
  };
  std::thread trainer([&] {
    TrainOptions options;
    options.epochs = 2;
    options.batch_size = 4;
    options.max_batches_per_epoch = 3;
    options.num_threads = 1;
    options.early_stop_patience = 2;
    TrainModel(
        &trained, dataset,
        [&trained](const STDataset& d, const std::vector<int64_t>& batch) {
          return trained.Loss(d, batch);
        },
        options);
  });
  std::thread first(serve);
  std::thread second(serve);
  first.join();
  second.join();
  trainer.join();
  EXPECT_EQ(mismatches.load(), 0);
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
  auto early = PointValue(runtime, fixture.regions[0], start);
  ASSERT_TRUE(early.ok());
  auto latest = PointValue(runtime, fixture.regions[0], start + 4);
  ASSERT_TRUE(latest.ok());
  // ...while a timestep beyond the stream degrades to NotFound instead
  // of aborting the process.
  auto beyond = PointValue(runtime, fixture.regions[0], start + 5);
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

  const int64_t t = options.ingest.start_t;
  auto rejected = runtime.ExecuteSpec(QuerySpec::MultiRegion(
      std::vector<GridMask>(8, fixture.regions[0]), t));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  auto accepted = runtime.ExecuteSpec(QuerySpec::MultiRegion(
      std::vector<GridMask>(2, fixture.regions[0]), t));
  EXPECT_TRUE(accepted.ok());

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 1);
  EXPECT_EQ(snapshot.queries_rejected, 8);
  EXPECT_EQ(snapshot.batches_admitted, 1);
}

// The serving hammer: concurrent readers issue MultiRegion spec
// storms while the ingestor publishes epochs in a loop; every answered
// query must be internally consistent (with ground-truth inference and
// exact-cover combinations, value == region truth for that timestep),
// and the concurrent totals must match a sequential replay.
TEST(ServingRuntimeTest, HammerConcurrentQueriesDuringEpochRolls) {
  ServeFixture fixture = ServeFixture::Make();
  const STDataset& dataset = *fixture.dataset;
  // Every spec runs on its client's thread, so the clients are the only
  // concurrency; both topologies race ExecuteSpec against the publisher.
  for (int num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ServingRuntimeOptions options = fixture.RuntimeOptions();
    options.num_shards = num_shards;
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
          const int64_t span = latest - start + 1;
          const int64_t t = start + static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(span)));
          std::vector<GridMask> masks;
          std::vector<size_t> spec_regions;
          for (int i = 0; i < 8; ++i) {
            const size_t region = static_cast<size_t>(
                rng.UniformInt(fixture.regions.size()));
            masks.push_back(fixture.regions[region]);
            spec_regions.push_back(region);
          }
          auto results =
              runtime.ExecuteSpec(QuerySpec::MultiRegion(std::move(masks), t));
          ASSERT_TRUE(results.ok());
          for (size_t i = 0; i < results->rows.size(); ++i) {
            const auto& result = results->rows[i];
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            const double truth =
                RegionTruth(dataset, fixture.regions[spec_regions[i]], t);
            if (std::abs(result.ValueOrDie().value - truth) >
                1e-3 * (1.0 + std::abs(truth))) {
              inconsistent.fetch_add(1);
            }
            logs[static_cast<size_t>(c)].push_back(LoggedQuery{
                spec_regions[i], t, result.ValueOrDie().value});
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
        auto replay = PointValue(runtime, fixture.regions[q.region], q.t);
        ASSERT_TRUE(replay.ok());
        EXPECT_EQ(*replay, q.value);
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
    EXPECT_EQ(after_swap.invalidations, num_shards);  // one per shard cache
    EXPECT_EQ(after_swap.size, 0u);

    // All superseded epochs were reclaimed once unpinned.
    EXPECT_EQ(runtime.shards().max_live_epochs(), 1);
    const auto snapshot = runtime.Telemetry();
    EXPECT_EQ(snapshot.epochs_published, steps);
    // Every shard reclaims its superseded epochs plus its generation 0.
    EXPECT_EQ(snapshot.epochs_reclaimed, num_shards * (steps - 1 + 1));
    EXPECT_GT(snapshot.queries_served, 0);
    EXPECT_EQ(snapshot.queries_rejected, 0);
    EXPECT_GT(snapshot.query_p99_micros, 0.0);
  }
}

// Span-tree additivity: with every query sampled, each child span lies
// inside its parent's interval and siblings do not overlap, so the
// per-stage self-times of a query's tree add up to its `query` root.
// Every span of a query is recorded on the thread that issued it.
TEST(ServingRuntimeTest, QuerySpanSelfTimesAddUpToTheRoot) {
  ServeFixture fixture = ServeFixture::Make();
  for (int num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    TraceRecorderOptions trace_options;
    trace_options.sample_every_n = 1;
    TraceRecorder recorder(trace_options);
    ServingRuntimeOptions options = fixture.RuntimeOptions();
    options.num_shards = num_shards;
    options.trace = &recorder;
    options.ingest.num_timesteps = 2;
    ServingRuntime runtime(&fixture.dataset->hierarchy(),
                           &fixture.pipeline->index(), fixture.dataset.get(),
                           MakeGroundTruthInference(fixture.dataset.get()),
                           options);
    runtime.Start();
    runtime.ingestor().WaitUntilDone();
    ASSERT_TRUE(runtime.ingestor().status().ok());

    const int64_t t0 = options.ingest.start_t;
    const std::vector<QuerySpec> shapes = {
        QuerySpec::PointInTime(fixture.regions[0], t0),
        QuerySpec::TimeRange(fixture.regions[1], t0, t0 + 1),
        QuerySpec::MultiRegion(fixture.regions, t0 + 1),
        QuerySpec::TopK(fixture.regions, t0 + 1, 3)};
    int64_t issued = 0;
    // Every shape twice: the second top-k is a memo hit, whose merge and
    // re-rank spans must nest as well.
    for (int pass = 0; pass < 2; ++pass) {
      for (const QuerySpec& spec : shapes) {
        auto result = runtime.ExecuteSpec(spec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        for (const auto& row : result->rows) ASSERT_TRUE(row.ok());
        ++issued;
      }
    }
    runtime.Stop();

    ASSERT_EQ(recorder.dropped_events(), 0);
    const std::vector<TraceEvent> events = recorder.Snapshot();
    const SpanForest forest = BuildSpanForest(events);
    EXPECT_EQ(forest.orphans, 0u);
    // Query roots in issue order: one client thread, so start order.
    std::vector<size_t> roots;
    for (const size_t root : forest.roots) {
      if (static_cast<SpanName>(events[root].name) == SpanName::kQuery) {
        roots.push_back(root);
      }
    }
    std::sort(roots.begin(), roots.end(), [&](size_t a, size_t b) {
      return events[a].start_nanos < events[b].start_nanos;
    });
    std::vector<int64_t> tree_spans;
    for (const size_t root : roots) {
      const TraceEvent& query = events[root];
      uint64_t self_sum = 0;
      int64_t spans = 0;
      std::vector<size_t> stack = {root};
      while (!stack.empty()) {
        const SpanTreeNode& node = forest.nodes[stack.back()];
        stack.pop_back();
        ++spans;
        self_sum += node.self_nanos;
        const TraceEvent& parent = *node.event;
        const uint64_t parent_end =
            parent.start_nanos + parent.duration_nanos;
        uint64_t previous_end = parent.start_nanos;
        for (const size_t c : node.children) {
          const TraceEvent& child = *forest.nodes[c].event;
          const std::string where =
              std::string(SpanNameString(static_cast<SpanName>(child.name))) +
              " under " +
              SpanNameString(static_cast<SpanName>(parent.name));
          // Starts after its parent and its previous sibling...
          EXPECT_GE(child.start_nanos, previous_end) << where;
          previous_end = child.start_nanos + child.duration_nanos;
          // ...and ends inside its parent.
          EXPECT_LE(previous_end, parent_end) << where;
          EXPECT_EQ(child.thread_id, query.thread_id) << where;
          stack.push_back(c);
        }
      }
      // Non-overlapping nested children: the self-times partition the
      // root's interval exactly.
      EXPECT_EQ(self_sum, query.duration_nanos);
      EXPECT_GT(spans, 3);  // admission, plan, pin and the stages below
      // One span per stage, none per slot or row: query, plan,
      // epoch_pin, admission, resolve, gather, rank.
      EXPECT_LE(spans, 7);
      tree_spans.push_back(spans);
    }
    ASSERT_EQ(static_cast<int64_t>(tree_spans.size()), issued);
    // A MultiRegion tree over every fixture region (shapes[2]) is as
    // big as the one-region point tree (shapes[0]) of the same pass.
    ASSERT_GT(fixture.regions.size(), 1u);
    const size_t per_pass = shapes.size();
    for (size_t pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(tree_spans[pass * per_pass + 2], tree_spans[pass * per_pass])
          << "pass " << pass;
    }
  }
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
  EXPECT_TRUE(store.GetTiledSatPlaneAt(generation, 1, start).ok());
  auto frame = MaterializedFrameAt(store, generation, 1, start);
  ASSERT_TRUE(frame.ok());

  // Released, the stale generation is reclaimed down to one live epoch.
  pinned.Release();
  runtime.Stop();
  EXPECT_FALSE(store.HasFrameAt(generation, 1, start));
  EXPECT_EQ(runtime.shards().max_live_epochs(), 1);
}

// Oracle frames where only one atomic 32x32 tile moves: every layer
// serves timestep `base_t`'s ground truth, except the atomic cells of
// [0, 32) x [0, 32), which follow timestep t. Coarse layers never
// change, so a publish dirties exactly one atomic tile.
FrameInference OneTileChurnInference(const STDataset* dataset,
                                     int64_t base_t) {
  return [dataset, base_t](int64_t t, const TemporalInput&)
             -> Result<std::vector<Tensor>> {
    std::vector<Tensor> frames;
    for (int l = 1; l <= dataset->hierarchy().num_layers(); ++l) {
      frames.push_back(dataset->FrameAtLayer(base_t, l));
    }
    const Tensor moving = dataset->FrameAtLayer(t, 1);
    for (int64_t r = 0; r < 32; ++r) {
      for (int64_t c = 0; c < 32; ++c) {
        frames[0].at(r, c) = moving.at(r, c);
      }
    }
    return frames;
  };
}

// The region of `regions` holding cell (r, c).
const GridMask& RegionAt(const std::vector<GridMask>& regions, int64_t r,
                         int64_t c) {
  for (const GridMask& region : regions) {
    if (region.at(r, c)) return region;
  }
  ADD_FAILURE() << "no region holds (" << r << "," << c << ")";
  return regions.front();
}

// Incremental top-k: a subscribed spec (same regions, advancing point
// timestep) goes through the memo — a same-timestep re-issue reuses
// every row, a publish that churns one tile re-gathers only the rows
// whose footprint it touches, and the merged ranking must be
// bit-identical to a cold evaluation.
TEST(ServingRuntimeTest, TopKSubscriptionReusesRowsAndStaysExact) {
  ServeFixture fixture = ServeFixture::Make(11, 64);
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 3;
  options.ingest.manual_stepping = true;
  const int64_t t0 = options.ingest.start_t;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         OneTileChurnInference(fixture.dataset.get(), t0),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
  const int k = 3;
  // Duplicates on both sides of the churn: the bottom-right region
  // (never churned) leads, and the top-left one (always churned) trails,
  // so restricting the plan to the churned rows re-maps a shared slot.
  std::vector<GridMask> regions;
  regions.push_back(RegionAt(fixture.regions, 63, 63));
  regions.insert(regions.end(), fixture.regions.begin(),
                 fixture.regions.end());
  regions.push_back(RegionAt(fixture.regions, 0, 0));
  const int64_t n = static_cast<int64_t>(regions.size());

  auto first = runtime.ExecuteSpec(QuerySpec::TopK(regions, t0, k));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), 0);

  // Same spec, same timestep, no publish in between: every row reuses.
  auto again = runtime.ExecuteSpec(QuerySpec::TopK(regions, t0, k));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), n);
  ASSERT_EQ(again->rows.size(), first->rows.size());
  EXPECT_EQ(again->top_k, first->top_k);
  for (size_t i = 0; i < first->rows.size(); ++i) {
    ASSERT_TRUE(first->rows[i].ok());
    ASSERT_TRUE(again->rows[i].ok());
    EXPECT_EQ(again->rows[i]->value, first->rows[i]->value);
  }

  // Advance the subscription one publish that churns one tile: some rows
  // re-gather, the rest carry over, and the merged ranking must be
  // bit-identical to a cold evaluation with the memo wiped.
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  const int64_t reused_before = runtime.topk_memo().rows_reused();
  const int64_t reeval_before = runtime.topk_memo().rows_reevaluated();
  auto warm = runtime.ExecuteSpec(QuerySpec::TopK(regions, t0 + 1, k));
  ASSERT_TRUE(warm.ok());
  const int64_t reused = runtime.topk_memo().rows_reused() - reused_before;
  EXPECT_GT(reused, 0);
  EXPECT_LT(reused, n);
  EXPECT_EQ(runtime.topk_memo().rows_reevaluated() - reeval_before,
            n - reused);
  runtime.topk_memo().Invalidate();
  auto cold = runtime.ExecuteSpec(QuerySpec::TopK(regions, t0 + 1, k));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->rows.size(), cold->rows.size());
  EXPECT_EQ(warm->top_k, cold->top_k);
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    ASSERT_TRUE(cold->rows[i].ok());
    ASSERT_TRUE(warm->rows[i].ok());
    EXPECT_EQ(warm->rows[i]->value, cold->rows[i]->value);
  }

  // Two specs one cell apart never share an entry: the variant misses
  // (counts nothing), and each spec then re-hits only its own entry.
  std::vector<GridMask> variant = regions;
  GridMask& grown = variant[1];
  bool flipped = false;
  for (int64_t r = 0; r < grown.height() && !flipped; ++r) {
    for (int64_t c = 0; c < grown.width() && !flipped; ++c) {
      if (!grown.at(r, c)) {
        grown.Set(r, c, true);
        flipped = true;
      }
    }
  }
  ASSERT_TRUE(flipped);
  const int64_t reused_cold = runtime.topk_memo().rows_reused();
  const int64_t reeval_cold = runtime.topk_memo().rows_reevaluated();
  auto other = runtime.ExecuteSpec(QuerySpec::TopK(variant, t0 + 1, k));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), reused_cold);
  EXPECT_EQ(runtime.topk_memo().rows_reevaluated(), reeval_cold);
  auto other_again =
      runtime.ExecuteSpec(QuerySpec::TopK(variant, t0 + 1, k));
  auto cold_again = runtime.ExecuteSpec(QuerySpec::TopK(regions, t0 + 1, k));
  ASSERT_TRUE(other_again.ok());
  ASSERT_TRUE(cold_again.ok());
  EXPECT_EQ(runtime.topk_memo().rows_reused(), reused_cold + 2 * n);
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    EXPECT_EQ(other_again->rows[i]->value, other->rows[i]->value);
    EXPECT_EQ(cold_again->rows[i]->value, cold->rows[i]->value);
  }
  EXPECT_EQ(cold_again->top_k, cold->top_k);
  EXPECT_EQ(other_again->top_k, other->top_k);
  runtime.Stop();
}

// Runs `spec` with the runtime's top-k memo wiped first: the cold
// answer every memo-served (warm) answer must reproduce.
QueryResult ColdAnswer(ServingRuntime* runtime, const QuerySpec& spec) {
  runtime->topk_memo().Invalidate();
  auto cold = runtime->ExecuteSpec(spec);
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  return cold.ok() ? cold.MoveValueUnsafe() : QueryResult();
}

// A top-k at a timestep no epoch holds yet fails every row. Once that
// timestep publishes, the re-issue must answer like a cold run: the memo
// must neither keep those failures nor replay them.
TEST(ServingRuntimeTest, TopKMemoNeverReplaysUnpublishedTimestep) {
  ServeFixture fixture = ServeFixture::Make(11, 64);
  for (int num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ServingRuntimeOptions options = fixture.RuntimeOptions();
    options.num_shards = num_shards;
    options.ingest.num_timesteps = 2;
    options.ingest.manual_stepping = true;
    ServingRuntime runtime(&fixture.dataset->hierarchy(),
                           &fixture.pipeline->index(), fixture.dataset.get(),
                           MakeGroundTruthInference(fixture.dataset.get()),
                           options);
    runtime.Start();
    runtime.ingestor().GrantSteps(1);
    ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
    const QuerySpec spec =
        QuerySpec::TopK(fixture.regions, options.ingest.start_t + 1, 3);
    auto early = runtime.ExecuteSpec(spec);
    ASSERT_TRUE(early.ok());
    for (const auto& row : early->rows) {
      ASSERT_FALSE(row.ok());
      EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
    }
    EXPECT_TRUE(early->top_k.empty());

    runtime.ingestor().GrantSteps(1);
    ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
    auto warm = runtime.ExecuteSpec(spec);
    ASSERT_TRUE(warm.ok());
    const QueryResult cold = ColdAnswer(&runtime, spec);
    for (const auto& row : cold.rows) ASSERT_TRUE(row.ok());
    ExpectBitExactRows(cold, *warm, "re-issued once published");
    runtime.Stop();
  }
}

// A top-k answered while its timestep was live must not be replayed once
// the retention horizon has dropped that timestep: a cold run fails
// every row there, and so must the re-issue.
TEST(ServingRuntimeTest, TopKMemoNeverServesReclaimedTimestep) {
  ServeFixture fixture = ServeFixture::Make(11, 64);
  for (int num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ServingRuntimeOptions options = fixture.RuntimeOptions();
    options.num_shards = num_shards;
    options.retain_timesteps = 2;
    options.ingest.num_timesteps = 5;
    options.ingest.manual_stepping = true;
    ServingRuntime runtime(&fixture.dataset->hierarchy(),
                           &fixture.pipeline->index(), fixture.dataset.get(),
                           MakeGroundTruthInference(fixture.dataset.get()),
                           options);
    runtime.Start();
    runtime.ingestor().GrantSteps(1);
    ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
    const QuerySpec spec =
        QuerySpec::TopK(fixture.regions, options.ingest.start_t, 3);
    auto live = runtime.ExecuteSpec(spec);
    ASSERT_TRUE(live.ok());
    for (const auto& row : live->rows) ASSERT_TRUE(row.ok());

    runtime.ingestor().GrantSteps(4);
    ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(5));
    auto warm = runtime.ExecuteSpec(spec);
    ASSERT_TRUE(warm.ok());
    const QueryResult cold = ColdAnswer(&runtime, spec);
    for (const auto& row : cold.rows) {
      ASSERT_FALSE(row.ok());
      EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
    }
    ExpectBitExactRows(cold, *warm, "re-issued once reclaimed");
    EXPECT_TRUE(warm->top_k.empty());
    runtime.Stop();
  }
}

// ---------------------------------------------------------------------------
// Warm-vs-cold differential for the top-k memo

// One layer cell a scripted publish changes.
struct ChurnCell {
  int layer = 1;
  int64_t r = 0, c = 0;
};

// The memo's footprint of `region`: its atomic bounding box rounded out
// to the coarsest layer's grid.
CellRect RoundedFootprint(const GridMask& region,
                          const Hierarchy& hierarchy) {
  CellRect box{region.height(), region.width(), 0, 0};
  for (int64_t r = 0; r < region.height(); ++r) {
    for (int64_t c = 0; c < region.width(); ++c) {
      if (!region.at(r, c)) continue;
      box.r0 = std::min(box.r0, r);
      box.c0 = std::min(box.c0, c);
      box.r1 = std::max(box.r1, r + 1);
      box.c1 = std::max(box.c1, c + 1);
    }
  }
  const int64_t s = hierarchy.layer(hierarchy.num_layers()).scale;
  return CellRect{box.r0 / s * s, box.c0 / s * s,
                  std::min((box.r1 + s - 1) / s * s, region.height()),
                  std::min((box.c1 + s - 1) / s * s, region.width())};
}

enum class ChurnCase {
  kOneCoarseCell,         // one cell of one layer >= 2 per publish
  kJustOutsideFootprint,  // a layer cell bordering a row's footprint
  kScatteredBlocks,       // several small blocks on random layers
  kGapPastHistory,        // more unqueried publishes than the memo keeps
  kRoundingAboveLeft,     // mixed magnitudes, a cell above/left of a row
};

// Inference replaying scripted frames: frames[i] is the frame set of
// timestep start_t + i.
FrameInference ScriptedInference(
    std::shared_ptr<const std::vector<std::vector<Tensor>>> frames,
    int64_t start_t) {
  return [frames, start_t](int64_t t, const TemporalInput&)
             -> Result<std::vector<Tensor>> {
    return (*frames)[static_cast<size_t>(t - start_t)];
  };
}

// Every answer a subscribed top-k gets from the memo must equal a cold
// run's bit for bit, statuses included. Each case scripts which layer
// cells change at each publish and runs the same seeded query schedule
// (latest timestep, re-issues, one step back, reclaimed and unpublished
// timesteps) on a warm runtime and on a cold
// twin whose memo is wiped before every query, at N in {1, 2, 4}.
TEST(ServingRuntimeTest, TopKMemoWarmAnswersMatchColdAcrossChurn) {
  ServeFixture fixture = ServeFixture::Make(11, 64);
  const STDataset& dataset = *fixture.dataset;
  const Hierarchy& hierarchy = dataset.hierarchy();
  const int num_layers = hierarchy.num_layers();
  const int64_t start_t = dataset.spec().MinHistory();
  const size_t gap = TopKMemo::kHistory + 6;

  for (ChurnCase churn_case :
       {ChurnCase::kOneCoarseCell, ChurnCase::kJustOutsideFootprint,
        ChurnCase::kScatteredBlocks,
        ChurnCase::kGapPastHistory, ChurnCase::kRoundingAboveLeft}) {
    SCOPED_TRACE("case " + std::to_string(static_cast<int>(churn_case)));
    Rng rng(500 + static_cast<uint64_t>(churn_case));
    auto pick = [&rng](int64_t n) {
      return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    };
    // Publish batches: one publish per round, except the gap case's
    // second round, which publishes past the memo's history unqueried.
    std::vector<int64_t> rounds(10, 1);
    if (churn_case == ChurnCase::kGapPastHistory) {
      rounds = {1, static_cast<int64_t>(gap), 1, 1};
    }
    int64_t steps = 0;
    for (int64_t n : rounds) steps += n;
    ASSERT_LT(start_t + steps, dataset.num_timesteps());

    // Script the frames: each step copies the previous one's frames and
    // moves only the cells its churn names.
    auto frames = std::make_shared<std::vector<std::vector<Tensor>>>();
    std::vector<Tensor> current;
    for (int l = 1; l <= num_layers; ++l) {
      current.push_back(dataset.FrameAtLayer(start_t, l));
    }
    if (churn_case == ChurnCase::kRoundingAboveLeft) {
      // Cells of ~1e3 next to cells of ~1e-7: double prefix sums over
      // the raw cells would round, and a rect sum read off them would
      // move in its low bits when a cell above or left of the rect
      // changes. The store's snap keeps every plane sum exact.
      for (Tensor& frame : current) {
        for (int64_t r = 0; r < frame.dim(0); ++r) {
          for (int64_t c = 0; c < frame.dim(1); ++c) {
            frame.at(r, c) =
                (r + c) % 2 == 0
                    ? 1e3f * (1.0f + 0.001f * static_cast<float>(pick(997)))
                    : 1e-7f * (1.0f + 0.01f * static_cast<float>(pick(89)));
          }
        }
      }
    }
    for (int64_t i = 0; i < steps; ++i) {
      std::vector<ChurnCell> churn;
      auto add_block = [&](int layer, int64_t r, int64_t c, int64_t dh,
                           int64_t dw) {
        const LayerInfo& info = hierarchy.layer(layer);
        for (int64_t rr = r; rr < std::min(r + dh, info.height); ++rr) {
          for (int64_t cc = c; cc < std::min(c + dw, info.width); ++cc) {
            churn.push_back(ChurnCell{layer, rr, cc});
          }
        }
      };
      auto random_cell = [&](int layer) {
        const LayerInfo& info = hierarchy.layer(layer);
        add_block(layer, pick(info.height), pick(info.width), 1, 1);
      };
      switch (churn_case) {
        case ChurnCase::kOneCoarseCell:
          random_cell(2 + static_cast<int>(pick(num_layers - 1)));
          break;
        case ChurnCase::kJustOutsideFootprint: {
          const GridMask& region = fixture.regions[static_cast<size_t>(
              pick(static_cast<int64_t>(fixture.regions.size())))];
          const CellRect fp = RoundedFootprint(region, hierarchy);
          const int layer = 1 + static_cast<int>(pick(num_layers));
          const LayerInfo& info = hierarchy.layer(layer);
          const int64_t s = info.scale;
          std::vector<std::pair<int64_t, int64_t>> outside;
          // Below, above, right of and left of the footprint's cells.
          if (fp.r1 / s < info.height) {
            outside.emplace_back(fp.r1 / s, fp.c0 / s);
          }
          if (fp.r0 > 0) outside.emplace_back(fp.r0 / s - 1, fp.c1 / s - 1);
          if (fp.c1 / s < info.width) {
            outside.emplace_back(fp.r1 / s - 1, fp.c1 / s);
          }
          if (fp.c0 > 0) outside.emplace_back(fp.r0 / s, fp.c0 / s - 1);
          if (!outside.empty()) {
            const auto& cell = outside[static_cast<size_t>(
                pick(static_cast<int64_t>(outside.size())))];
            add_block(layer, cell.first, cell.second, 1, 1);
          }
          break;
        }
        case ChurnCase::kScatteredBlocks:
          for (int b = 0; b < 3; ++b) {
            const int layer = 1 + static_cast<int>(pick(num_layers));
            const LayerInfo& info = hierarchy.layer(layer);
            add_block(layer, pick(info.height), pick(info.width),
                      1 + pick(4), 1 + pick(4));
          }
          random_cell(1);
          random_cell(num_layers);
          break;
        case ChurnCase::kRoundingAboveLeft: {
          // A layer cell in the rows above or the columns left of a
          // row's footprint, but inside its prefix [0, r1) x [0, c1).
          const GridMask& region = fixture.regions[static_cast<size_t>(
              pick(static_cast<int64_t>(fixture.regions.size())))];
          const CellRect fp = RoundedFootprint(region, hierarchy);
          const int layer = 1 + static_cast<int>(pick(num_layers));
          const int64_t s = hierarchy.layer(layer).scale;
          if (fp.r0 > 0 && (fp.c0 == 0 || pick(2) == 0)) {
            add_block(layer, pick(fp.r0 / s), pick(fp.c1 / s), 1, 1);
          } else if (fp.c0 > 0) {
            add_block(layer, pick(fp.r1 / s), pick(fp.c0 / s), 1, 1);
          }
          break;
        }
        case ChurnCase::kGapPastHistory:
          // Only the gap's first publish churns (a block on the atomic
          // and the coarsest layer): a memo that forgot that publish
          // would see nothing but clean records afterwards.
          if (i == 1) {
            add_block(1, pick(48), pick(48), 16, 16);
            random_cell(num_layers);
          } else if (i > static_cast<int64_t>(gap)) {
            random_cell(1 + static_cast<int>(pick(num_layers)));
          }
          break;
      }
      for (const ChurnCell& cell : churn) {
        current[static_cast<size_t>(cell.layer - 1)].at(cell.r, cell.c) +=
            1.0f + 0.25f * static_cast<float>(i % 5);
      }
      frames->push_back(current);
    }

    ServingRuntimeOptions options;
    options.retain_timesteps = 4;
    options.ingest.start_t = start_t;
    options.ingest.num_timesteps = steps;
    options.ingest.manual_stepping = true;
    const std::vector<int> shard_counts = {1, 2, 4};
    std::vector<std::unique_ptr<ServingRuntime>> warm, cold;
    for (int num_shards : shard_counts) {
      options.num_shards = num_shards;
      for (auto* fleet : {&warm, &cold}) {
        fleet->push_back(std::make_unique<ServingRuntime>(
            &hierarchy, &fixture.pipeline->index(), &dataset,
            ScriptedInference(frames, start_t), options));
        fleet->back()->Start();
      }
    }

    // Rows each warm runtime carried over on a subscription advance (a
    // query one timestep past the previous one), not a same-t re-issue.
    std::vector<int64_t> advance_reused(warm.size(), 0);
    int64_t previous_t = -1;
    int64_t published = 0;
    for (size_t round = 0; round < rounds.size(); ++round) {
      published += rounds[round];
      for (size_t k = 0; k < warm.size(); ++k) {
        for (auto* fleet : {&warm, &cold}) {
          (*fleet)[k]->ingestor().GrantSteps(rounds[round]);
          ASSERT_TRUE((*fleet)[k]->ingestor().WaitUntilAttempted(published));
        }
      }
      const int64_t latest = start_t + published - 1;
      const int queries = 1 + static_cast<int>(pick(3));
      for (int q = 0; q < queries; ++q) {
        // First the latest timestep (the subscription), then re-issues
        // there, one step back, past the retention horizon or not yet
        // published.
        const int64_t offsets[] = {0, 0, -1, -5, 1};
        const int64_t t = latest + (q == 0 ? 0 : offsets[pick(5)]);
        const QuerySpec spec = QuerySpec::TopK(fixture.regions, t, 5);
        for (size_t k = 0; k < warm.size(); ++k) {
          const int64_t reused_before = warm[k]->topk_memo().rows_reused();
          auto warm_answer = warm[k]->ExecuteSpec(spec);
          ASSERT_TRUE(warm_answer.ok());
          if (t == previous_t + 1) {
            advance_reused[k] +=
                warm[k]->topk_memo().rows_reused() - reused_before;
          }
          const QueryResult cold_answer = ColdAnswer(cold[k].get(), spec);
          ExpectBitExactRows(cold_answer, *warm_answer,
                             "N=" + std::to_string(shard_counts[k]) +
                                 " round " + std::to_string(round) + " t=" +
                                 std::to_string(t));
        }
        previous_t = t;
      }
    }
    for (size_t k = 0; k < warm.size(); ++k) {
      // A coarse cell or a footprint's neighbour moves most rows' values
      // nowhere: cell-exact dirty sets let those rows carry over, since
      // every plane sum is exact.
      if (churn_case == ChurnCase::kOneCoarseCell ||
          churn_case == ChurnCase::kJustOutsideFootprint ||
          churn_case == ChurnCase::kRoundingAboveLeft) {
        EXPECT_GT(advance_reused[k], 0) << "N=" << shard_counts[k];
      }
      warm[k]->Stop();
      cold[k]->Stop();
    }
  }
}

// The end-to-end histogram, the runtime's one query latency, takes one
// sample per call whatever the row count.
TEST(ServingRuntimeTest, EndToEndLatencyCountsOncePerCall) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 1;
  options.ingest.manual_stepping = true;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(1));
  const int64_t t = options.ingest.start_t;
  ServingTelemetry& telemetry = runtime.telemetry();

  const int64_t e2e_before = telemetry.query_e2e.count();
  auto served =
      runtime.ExecuteSpec(QuerySpec::MultiRegion(fixture.regions, t));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(telemetry.query_e2e.count(), e2e_before + 1);

  auto point =
      runtime.ExecuteSpec(QuerySpec::PointInTime(fixture.regions[0], t));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(telemetry.query_e2e.count(), e2e_before + 2);
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
        auto frame =
            MaterializedFrameAt(store, guard.generation(), 1, t);
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

// An inference that emits a NaN cell is refused like a store that
// refuses writes: the publish fails and is counted, nothing of that
// timestep is published, and the previous epoch keeps serving.
TEST(StreamIngestorTest, RefusesNonFiniteInferenceAndKeepsServing) {
  ServeFixture fixture = ServeFixture::Make();
  ServingRuntimeOptions options = fixture.RuntimeOptions();
  options.ingest.num_timesteps = 3;
  options.ingest.manual_stepping = true;
  const int64_t start = options.ingest.start_t;
  const FrameInference truth =
      MakeGroundTruthInference(fixture.dataset.get());
  const FrameInference inference =
      [truth, start](int64_t t, const TemporalInput& input)
      -> Result<std::vector<Tensor>> {
    Result<std::vector<Tensor>> frames = truth(t, input);
    if (frames.ok() && t == start + 2) {
      frames->back().at(0, 0) = std::numeric_limits<float>::quiet_NaN();
    }
    return frames;
  };
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(), fixture.dataset.get(),
                         inference, options);
  runtime.Start();
  runtime.ingestor().GrantSteps(2);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(2));
  ASSERT_EQ(runtime.ingestor().steps_published(), 2);
  const GridMask& region = fixture.regions[0];
  auto before = PointValue(runtime, region, start + 1);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  runtime.ingestor().GrantSteps(1);
  ASSERT_TRUE(runtime.ingestor().WaitUntilAttempted(3));
  EXPECT_EQ(runtime.ingestor().steps_published(), 2);
  EXPECT_FALSE(runtime.ingestor().done());
  EXPECT_TRUE(runtime.ingestor().status().ok());  // not a fatal error
  EXPECT_EQ(runtime.ingestor().last_publish_error().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime.Telemetry().publish_failures, 1);
  EXPECT_EQ(runtime.published_latest_t(), start + 1);
  auto after = PointValue(runtime, region, start + 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_EQ(PointValue(runtime, region, start + 2).status().code(),
            StatusCode::kNotFound);
  runtime.Stop();
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
