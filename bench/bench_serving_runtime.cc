// Sustained throughput of the online serving runtime *while epochs
// roll*: a static-store baseline (256-region MultiRegion specs over a
// fully pre-synced generation) against the ServingRuntime answering the
// same kind of query storm concurrently with the stream ingestor
// publishing one epoch per timestep. Acceptance (ISSUE 3): serving
// throughput within 2x of the static baseline while an epoch is
// published at least every 50 ms, with zero consistency violations.
//
// The storm phase runs as five interleaved pairs — the trace recorder
// disabled, then always-on recording (default head sampling) — to
// measure the observability tax. Acceptance (ISSUE 8): always-on span
// recording costs <= 5% QPS, comparing the median obs-on storm with the
// median no-obs storm (one pair alone reads 1-12% apart on a shared
// 4-vCPU host); both medians, the ring drop accounting and a per-stage
// latency breakdown (from the last obs-on storm's spans) land in
// BENCH_serving.json.
//
// A fourth phase replays the storm against 1/2/4/8 band shards
// (ISSUE 9): per-shard-count QPS rows land in the JSON as
// "shard_scaling", every row must stay bit-exact with zero torn pins,
// and a >= 2x QPS speedup at 4 shards is gated — unless storm clients x
// 8 shards oversubscribes the hardware threads, in which case the curve
// is recorded with "oversubscribed": true and the speedup is flagged,
// not gated.
//
// A fifth phase measures publish cost against churn (ISSUE 10): the
// same epoch publish loop at 1/5/25/100% dirty fraction, full-rebuild
// staging vs delta staging with a dirty-tile set, written to
// BENCH_publish.json. Gated: incremental cost scales with the dirty
// fraction and epochs/sec at 5% churn beats the full rebuild >= 10x.
//
// Emits BENCH_serving.json (override with O4A_BENCH_JSON, empty
// disables) and BENCH_publish.json (O4A_PUBLISH_JSON). Env knobs:
// O4A_BENCH_QUERIES (static-phase stream length), O4A_BENCH_CLIENTS
// (storm client threads), O4A_PUBLISH_GRID / O4A_PUBLISH_EPOCHS /
// O4A_PUBLISH_REPS (churn-curve layer size, epochs per point, and
// best-of repetitions), O4A_BENCH_STRICT (default 1: exit nonzero
// when a shape check misses).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "serve/serving_runtime.h"

namespace one4all {
namespace bench {
namespace {

/// Regions per spec, in the static baseline and in every storm.
constexpr int kSpecRegions = 256;

std::vector<GridMask> MakeRegions(const STDataset& dataset) {
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 12.0;
  options.seed = 17;
  auto regions = GenerateRegions(dataset.hierarchy().atomic_height(),
                                 dataset.hierarchy().atomic_width(),
                                 options);
  O4A_CHECK(!regions.empty());
  return regions;
}

struct StormOutcome {
  double qps = 0.0;
  int64_t answered = 0;
  int64_t inconsistent = 0;
  int64_t rejected = 0;
  double storm_seconds = 0.0;
  bool cross_shard_consistent = true;
  int64_t pin_retries = 0;
  ServingTelemetrySnapshot telemetry;
};

/// One row of the shard-scaling curve (phase 4).
struct ShardScalingRow {
  int shards = 1;
  int clients = 0;  ///< storm clients this row was sized to
  double qps = 0.0;
  int64_t answered = 0;
  bool consistent = true;
  int64_t pin_retries = 0;
  /// Even the minimum storm (2 clients x this row's scatter width)
  /// exceeds the hardware threads: recorded but exempt from the gate.
  bool oversubscribed = false;
};

struct ServingResult {
  double baseline_qps = 0.0;
  int obs_pairs = 0;                ///< interleaved no-obs/obs-on storms
  double serving_qps = 0.0;         ///< median obs-on storm (production)
  double serving_qps_no_obs = 0.0;  ///< median storm, recorder disabled
  double obs_overhead_pct = 0.0;    ///< (no_obs - obs) / no_obs, floored at 0
  double ratio = 0.0;               ///< obs-on vs static baseline
  int64_t serving_queries = 0;
  int64_t epochs_published = 0;
  double mean_publish_interval_ms = 0.0;
  double publish_p99_micros = 0.0;
  double query_p50_micros = 0.0;
  double query_p99_micros = 0.0;
  int64_t inconsistent = 0;
  int64_t rejected = 0;
  int64_t ring_events = 0;
  int64_t ring_dropped = 0;
  std::vector<ShardScalingRow> shard_scaling;
  double shard_speedup_4x = 0.0;  ///< 4-shard qps / 1-shard qps (phase 4)
  std::array<SpanAggregate, kNumSpanNames> stages{};
};

// Median of an odd-sized sample.
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One storm phase: the MultiRegion spec storm against a fresh ServingRuntime
// whose every layer emits spans into `recorder` (enable/disable it
// before calling). Consistency is checked on every answer.
StormOutcome RunStorm(const STDataset& dataset,
                      const ExtendedQuadTree& index,
                      const std::vector<GridMask>& regions, int clients,
                      QueryStrategy strategy, TraceRecorder* recorder,
                      const char* label, int num_shards = 1) {
  const auto& slots = dataset.test_indices();
  ServingRuntimeOptions options;
  options.max_inflight_queries = 1 << 20;
  options.trace = recorder;
  options.num_shards = num_shards;
  options.ingest.start_t = slots.front();
  options.ingest.num_timesteps = static_cast<int64_t>(slots.size());
  // Paced well inside the 50 ms epoch-cadence budget; the ingest loop
  // still pays full stage+publish cost per epoch.
  options.ingest.min_publish_interval_ms = 10;
  ServingRuntime runtime(&dataset.hierarchy(), &index, &dataset,
                         MakeGroundTruthInference(&dataset), options);

  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> inconsistent{0};
  std::atomic<int64_t> rejected{0};

  runtime.Start();
  O4A_CHECK(runtime.ingestor().WaitUntilPublished(slots.front()));
  Stopwatch storm_timer;
  std::vector<std::thread> storm;
  for (int c = 0; c < clients; ++c) {
    storm.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(97 + c));
      while (!runtime.ingestor().done()) {
        const int64_t latest = runtime.published_latest_t();
        const int64_t span = latest - slots.front() + 1;
        const int64_t t =
            slots.front() +
            static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(span)));
        std::vector<size_t> picked(kSpecRegions);
        std::vector<GridMask> masks;
        masks.reserve(picked.size());
        for (size_t& region : picked) {
          region = static_cast<size_t>(rng.UniformInt(regions.size()));
          masks.push_back(regions[region]);
        }
        auto results = runtime.ExecuteSpec(
            QuerySpec::MultiRegion(std::move(masks), t, strategy));
        if (!results.ok()) {
          rejected.fetch_add(static_cast<int64_t>(picked.size()));
          continue;
        }
        int64_t ok_count = 0;
        for (size_t i = 0; i < results->rows.size(); ++i) {
          const auto& response = results->rows[i];
          O4A_CHECK(response.ok()) << response.status().ToString();
          ++ok_count;
          // Ground-truth inference + exact-cover combinations:
          // every answer must reproduce the region's true flow.
          const double truth = RegionTruth(dataset, regions[picked[i]], t);
          if (std::abs(response.ValueOrDie().value - truth) >
              1e-3 * (1.0 + std::abs(truth))) {
            inconsistent.fetch_add(1);
          }
        }
        answered.fetch_add(ok_count);
      }
    });
  }
  for (auto& client : storm) client.join();
  StormOutcome outcome;
  outcome.storm_seconds = storm_timer.ElapsedSeconds();
  runtime.Stop();
  O4A_CHECK(runtime.ingestor().status().ok())
      << runtime.ingestor().status().ToString();

  outcome.answered = answered.load();
  outcome.qps =
      static_cast<double>(outcome.answered) / outcome.storm_seconds;
  outcome.inconsistent = inconsistent.load();
  outcome.rejected = rejected.load();
  outcome.cross_shard_consistent = runtime.shards().Consistent();
  outcome.pin_retries = runtime.shards().pin_retries();
  outcome.telemetry = runtime.Telemetry();

  std::cout << label << ": " << outcome.answered << " queries in "
            << TablePrinter::Num(outcome.storm_seconds, 3) << " s ("
            << TablePrinter::Num(outcome.qps, 0) << " q/s)\n";
  const auto cache_stats = runtime.shards().CacheStats();
  std::cout << "  resolve cache: hit rate "
            << TablePrinter::Num(cache_stats.hit_rate() * 100.0, 1)
            << "% over " << (cache_stats.hits + cache_stats.misses)
            << " lookups, invalidations " << cache_stats.invalidations
            << "\n";
  return outcome;
}

void WriteJson(const std::string& path, const ServingResult& r,
               int clients) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"serving_runtime\",\n";
  js << "  \"clients\": " << clients << ",\n";
  js << "  \"baseline_qps\": " << TablePrinter::Num(r.baseline_qps, 0)
     << ",\n";
  js << "  \"obs_pairs\": " << r.obs_pairs << ",\n";
  js << "  \"serving_qps\": " << TablePrinter::Num(r.serving_qps, 0)
     << ",\n";
  js << "  \"serving_qps_no_obs\": "
     << TablePrinter::Num(r.serving_qps_no_obs, 0) << ",\n";
  js << "  \"obs_overhead_pct\": "
     << TablePrinter::Num(r.obs_overhead_pct, 2) << ",\n";
  js << "  \"ratio\": " << TablePrinter::Num(r.ratio, 3) << ",\n";
  js << "  \"serving_queries\": " << r.serving_queries << ",\n";
  js << "  \"epochs_published\": " << r.epochs_published << ",\n";
  js << "  \"mean_publish_interval_ms\": "
     << TablePrinter::Num(r.mean_publish_interval_ms, 2) << ",\n";
  js << "  \"publish_p99_micros\": "
     << TablePrinter::Num(r.publish_p99_micros, 1) << ",\n";
  js << "  \"query_p50_micros\": "
     << TablePrinter::Num(r.query_p50_micros, 1) << ",\n";
  js << "  \"query_p99_micros\": "
     << TablePrinter::Num(r.query_p99_micros, 1) << ",\n";
  js << "  \"inconsistent\": " << r.inconsistent << ",\n";
  js << "  \"rejected\": " << r.rejected << ",\n";
  js << "  \"ring_events\": " << r.ring_events << ",\n";
  js << "  \"ring_dropped\": " << r.ring_dropped << ",\n";
  // Shard-scaling curve (phase 4): one row per shard count.
  js << "  \"shard_scaling\": [";
  for (size_t i = 0; i < r.shard_scaling.size(); ++i) {
    const auto& row = r.shard_scaling[i];
    js << (i == 0 ? "" : ", ") << "{\"shards\": " << row.shards
       << ", \"clients\": " << row.clients
       << ", \"qps\": " << TablePrinter::Num(row.qps, 0)
       << ", \"answered\": " << row.answered << ", \"consistent\": "
       << (row.consistent ? "true" : "false")
       << ", \"pin_retries\": " << row.pin_retries
       << ", \"oversubscribed\": "
       << (row.oversubscribed ? "true" : "false") << "}";
  }
  js << "],\n";
  js << "  \"shard_speedup_4x\": "
     << TablePrinter::Num(r.shard_speedup_4x, 3) << ",\n";
  // Stage-attributed latency breakdown from the obs-on storm's spans.
  js << "  \"stage_count\": {";
  bool first = true;
  for (int i = 0; i < kNumSpanNames; ++i) {
    if (r.stages[static_cast<size_t>(i)].count == 0) continue;
    js << (first ? "" : ", ") << "\""
       << SpanNameString(static_cast<SpanName>(i))
       << "\": " << r.stages[static_cast<size_t>(i)].count;
    first = false;
  }
  js << "},\n";
  js << "  \"stage_mean_micros\": {";
  first = true;
  for (int i = 0; i < kNumSpanNames; ++i) {
    const auto& agg = r.stages[static_cast<size_t>(i)];
    if (agg.count == 0) continue;
    js << (first ? "" : ", ") << "\""
       << SpanNameString(static_cast<SpanName>(i))
       << "\": " << TablePrinter::Num(agg.MeanMicros(), 2);
    first = false;
  }
  js << "},\n";
  js << "  \"host\": " << HostEnvelopeJson() << "\n";
  js << "}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

// ---------------------------------------------------------------------
// Phase 5: publish cost vs churn (ISSUE 10)

/// One churn point of the publish-cost curve.
struct ChurnRow {
  double churn_pct = 0.0;      ///< requested dirty fraction, percent
  int64_t dirty_tiles = 0;     ///< tiles the churn rect actually marks
  double full_ms = 0.0;        ///< mean ms/epoch, full-rebuild staging
  double incremental_ms = 0.0; ///< mean ms/epoch, delta staging
  double speedup = 0.0;        ///< full_ms / incremental_ms
  int64_t cow_shared_tiles = 0;
  int64_t stage_dirty_tiles = 0;
};

struct PublishChurnResult {
  int64_t height = 0, width = 0, total_tiles = 0;
  int64_t epochs_per_point = 0;
  std::vector<ChurnRow> curve;
  double speedup_at_5pct = 0.0;
};

/// Publishes `epochs` carry-forward epochs of one HxW layer, mutating a
/// tile-aligned square covering ~`churn` of the grid each timestep;
/// `incremental` stages with the churn rect's dirty set, the comparator
/// stages everything fresh. The square is tile-aligned so the requested
/// churn fraction and the dirty-tile fraction coincide — an unaligned
/// rect would only add tile-quantization overhead to every point, which
/// is not what the curve plots. Returns mean milliseconds per publish,
/// timing BeginEpoch through Publish only. The frame mutation and dirty
/// marking stay outside the timer, and the dirty set is an input on
/// purpose: the bench isolates staging+plane+publish cost — the
/// ingestor's mutation and frame diff belong to ingest cost, measured
/// by the storm.
double RunPublishLoop(int64_t h, int64_t w, double churn, int64_t epochs,
                      bool incremental, ServingTelemetry* telemetry,
                      int64_t* dirty_tiles_out) {
  PredictionStore store;
  FrameEpochManagerOptions options;
  options.retain_timesteps = 2;  // constant carry cost per epoch
  FrameEpochManager manager(&store, telemetry, options);

  Rng rng(1234);
  Tensor frame = Tensor::RandomUniform({h, w}, &rng, 0.0f, 50.0f);
  {
    auto staging = manager.BeginEpoch(/*carry_forward=*/false);
    staging.StageFrame(1, 0, frame);
    manager.Publish(std::move(staging));
  }

  const TileDirtySet probe(h, w);
  const int64_t side_tiles = std::min(
      std::min(probe.tiles_h(), probe.tiles_w()),
      std::max<int64_t>(
          1, std::llround(std::sqrt(
                 churn * static_cast<double>(probe.num_tiles())))));
  double publish_seconds = 0.0;
  for (int64_t t = 1; t <= epochs; ++t) {
    // Rotate the churn square through the grid so successive epochs
    // dirty different tiles (no warm-tile artifacts).
    const int64_t i0 = (t * 7) % (probe.tiles_h() - side_tiles + 1);
    const int64_t j0 = (t * 11) % (probe.tiles_w() - side_tiles + 1);
    const int64_t r0 = i0 * kSatTileSize;
    const int64_t c0 = j0 * kSatTileSize;
    const int64_t r1 = std::min(h, (i0 + side_tiles) * kSatTileSize);
    const int64_t c1 = std::min(w, (j0 + side_tiles) * kSatTileSize);
    // Reflect each churned cell within the initial [0, 50] range: every
    // touched cell changes, and the frame's absolute sum stays bounded
    // however many epochs run (the store refuses a frame past
    // kMaxFrameAbsSum).
    for (int64_t r = r0; r < r1; ++r) {
      float* row = frame.data() + r * w;
      for (int64_t c = c0; c < c1; ++c) {
        row[c] = 50.0f - row[c];
      }
    }
    TileDirtySet dirty(h, w);
    dirty.MarkRect(r0, c0, r1, c1);
    if (dirty_tiles_out != nullptr) *dirty_tiles_out = dirty.CountDirty();

    Stopwatch timer;
    auto staging = manager.BeginEpoch(/*carry_forward=*/true);
    const Status status =
        staging.TryStageFrame(1, t, frame, incremental ? &dirty : nullptr);
    O4A_CHECK(status.ok()) << status.ToString();
    manager.Publish(std::move(staging));
    publish_seconds += timer.ElapsedSeconds();
  }
  return publish_seconds * 1e3 / static_cast<double>(epochs);
}

PublishChurnResult RunPublishChurn() {
  PublishChurnResult result;
  result.height = EnvInt("O4A_PUBLISH_GRID", 2048);
  result.width = result.height;
  result.epochs_per_point = EnvInt("O4A_PUBLISH_EPOCHS", 30);
  {
    const TileDirtySet probe(result.height, result.width);
    result.total_tiles = probe.num_tiles();
  }

  // Best-of-reps: each point's mean ms/epoch is itself noisy on a
  // loaded box (allocator and scheduler interference), and the work per
  // epoch is deterministic, so the minimum across repetitions is the
  // least-contaminated estimate of either path's true cost.
  const int64_t reps = EnvInt("O4A_PUBLISH_REPS", 3);
  for (const double churn : {0.01, 0.05, 0.25, 1.0}) {
    ChurnRow row;
    row.churn_pct = churn * 100.0;
    row.full_ms = std::numeric_limits<double>::infinity();
    row.incremental_ms = std::numeric_limits<double>::infinity();
    for (int64_t rep = 0; rep < reps; ++rep) {
      row.full_ms = std::min(
          row.full_ms,
          RunPublishLoop(result.height, result.width, churn,
                         result.epochs_per_point, /*incremental=*/false,
                         nullptr, nullptr));
      // Counters are deterministic across reps; keep the last snapshot.
      ServingTelemetry telemetry;
      row.incremental_ms = std::min(
          row.incremental_ms,
          RunPublishLoop(result.height, result.width, churn,
                         result.epochs_per_point, /*incremental=*/true,
                         &telemetry, &row.dirty_tiles));
      const auto snapshot = telemetry.Snapshot();
      row.cow_shared_tiles = snapshot.cow_shared_tiles;
      row.stage_dirty_tiles = snapshot.stage_dirty_tiles;
    }
    row.speedup = row.full_ms / std::max(1e-9, row.incremental_ms);
    result.curve.push_back(row);
    if (churn == 0.05) result.speedup_at_5pct = row.speedup;
  }

  TablePrinter table("Publish cost vs churn (" +
                     std::to_string(result.height) + "x" +
                     std::to_string(result.width) + " layer, " +
                     std::to_string(result.epochs_per_point) +
                     " epochs/point)");
  table.SetHeader({"Churn %", "dirty tiles", "full ms", "incr ms",
                   "speedup"});
  for (const auto& row : result.curve) {
    table.AddRow({TablePrinter::Num(row.churn_pct, 0),
                  std::to_string(row.dirty_tiles) + "/" +
                      std::to_string(result.total_tiles),
                  TablePrinter::Num(row.full_ms, 3),
                  TablePrinter::Num(row.incremental_ms, 3),
                  TablePrinter::Num(row.speedup, 1)});
  }
  table.Print(std::cout);
  return result;
}

void WritePublishJson(const std::string& path,
                      const PublishChurnResult& r) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"publish_churn\",\n";
  js << "  \"height\": " << r.height << ",\n";
  js << "  \"width\": " << r.width << ",\n";
  js << "  \"total_tiles\": " << r.total_tiles << ",\n";
  js << "  \"epochs_per_point\": " << r.epochs_per_point << ",\n";
  js << "  \"curve\": [";
  for (size_t i = 0; i < r.curve.size(); ++i) {
    const auto& row = r.curve[i];
    js << (i == 0 ? "" : ", ") << "{\"churn_pct\": "
       << TablePrinter::Num(row.churn_pct, 0)
       << ", \"dirty_tiles\": " << row.dirty_tiles
       << ", \"full_ms_per_epoch\": " << TablePrinter::Num(row.full_ms, 4)
       << ", \"incremental_ms_per_epoch\": "
       << TablePrinter::Num(row.incremental_ms, 4)
       << ", \"incremental_epochs_per_sec\": "
       << TablePrinter::Num(1e3 / std::max(1e-9, row.incremental_ms), 0)
       << ", \"speedup\": " << TablePrinter::Num(row.speedup, 2)
       << ", \"stage_dirty_tiles\": " << row.stage_dirty_tiles
       << ", \"cow_shared_tiles\": " << row.cow_shared_tiles << "}";
  }
  js << "],\n";
  js << "  \"speedup_at_5pct_churn\": "
     << TablePrinter::Num(r.speedup_at_5pct, 2) << ",\n";
  js << "  \"host\": " << HostEnvelopeJson() << "\n";
  js << "}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

int main_impl() {
  BenchConfig config = BenchConfig::FromEnv();
  const int64_t num_queries =
      std::max<int64_t>(1, EnvInt("O4A_BENCH_QUERIES", 4000));
  const int clients = static_cast<int>(std::max<int64_t>(
      1, EnvInt("O4A_BENCH_CLIENTS",
                std::max(2, ThreadPool::HardwareThreads() - 1))));

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  HistoryMeanPredictor hm;  // throughput is model-independent
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});
  const auto regions = MakeRegions(dataset);
  const auto& slots = dataset.test_indices();
  const QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
  ServingResult result;

  // -- Phase 1: static-store baseline (frames pre-synced) -------------
  // num_queries rows as kSpecRegions-region specs, one timestep each,
  // cycling the region set and the test slots.
  {
    std::vector<QuerySpec> specs;
    size_t r = 0;
    for (int64_t rows = 0; rows < num_queries; rows += kSpecRegions) {
      std::vector<GridMask> masks;
      const int64_t n = std::min<int64_t>(kSpecRegions, num_queries - rows);
      for (int64_t i = 0; i < n; ++i) {
        masks.push_back(regions[r]);
        r = (r + 1) % regions.size();
      }
      specs.push_back(QuerySpec::MultiRegion(
          std::move(masks), slots[specs.size() % slots.size()], strategy));
    }
    ResolvedQueryCache cache;
    QueryExecutorOptions options;
    options.cache = &cache;
    const QueryPlanner planner(&dataset.hierarchy());
    const QueryExecutor executor(&pipeline->server());
    Stopwatch timer;
    for (QuerySpec& spec : specs) {
      auto plan = planner.Plan(std::move(spec));
      O4A_CHECK(plan.ok()) << plan.status().ToString();
      for (const auto& row : executor.Execute(*plan, options).rows) {
        O4A_CHECK(row.ok()) << row.status().ToString();
      }
    }
    const double seconds = timer.ElapsedSeconds();
    result.baseline_qps = static_cast<double>(num_queries) / seconds;
    std::cout << "static baseline: " << num_queries << " queries in "
              << specs.size() << " specs, " << TablePrinter::Num(seconds, 3)
              << " s (" << TablePrinter::Num(result.baseline_qps, 0)
              << " q/s)\n";
  }

  // -- Phases 2-3: the storm with the recorder disabled, then on -------
  // Interleaved pairs, so drift in the host's speed lands on both sides,
  // compared by their medians. A fresh recorder per storm keeps the
  // obs-on ring accounting below exactly one storm's worth of events.
  constexpr int kObsPairs = 5;
  std::vector<double> no_obs_qps;
  std::vector<double> obs_qps;
  StormOutcome obs;
  std::unique_ptr<TraceRecorder> obs_recorder;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    TraceRecorder recorder;
    recorder.set_enabled(false);
    const StormOutcome no_obs =
        RunStorm(dataset, pipeline->index(), regions, clients, strategy,
                 &recorder, "storm (no obs)");
    O4A_CHECK_EQ(recorder.total_events(), 0);
    no_obs_qps.push_back(no_obs.qps);
    result.inconsistent += no_obs.inconsistent;
    result.rejected += no_obs.rejected;

    // Default head sampling (1-in-16 trees).
    obs_recorder = std::make_unique<TraceRecorder>();
    obs = RunStorm(dataset, pipeline->index(), regions, clients, strategy,
                   obs_recorder.get(), "storm (obs on)");
    obs_qps.push_back(obs.qps);
    result.inconsistent += obs.inconsistent;
    result.rejected += obs.rejected;
  }
  obs.telemetry.Render("Serving telemetry (last obs-on storm)")
      .Print(std::cout);

  result.obs_pairs = kObsPairs;
  result.serving_qps = Median(obs_qps);
  result.serving_qps_no_obs = Median(no_obs_qps);
  result.obs_overhead_pct =
      std::max(0.0, (result.serving_qps_no_obs - result.serving_qps) /
                        result.serving_qps_no_obs * 100.0);
  result.ratio = result.serving_qps / result.baseline_qps;
  result.serving_queries = obs.answered;
  result.epochs_published = obs.telemetry.epochs_published;
  result.mean_publish_interval_ms =
      obs.storm_seconds * 1e3 /
      static_cast<double>(
          std::max<int64_t>(1, obs.telemetry.epochs_published));
  result.publish_p99_micros = obs.telemetry.publish_p99_micros;
  // End-to-end ExecuteSpec latency, one sample per spec.
  result.query_p50_micros = obs.telemetry.query_p50_micros;
  result.query_p99_micros = obs.telemetry.query_p99_micros;
  result.ring_events = obs_recorder->total_events();
  result.ring_dropped = obs_recorder->dropped_events();
  result.stages = AggregateBySpanName(obs_recorder->Snapshot());

  TablePrinter table("Serving throughput while epochs roll (" +
                     std::to_string(clients) + " storm clients)");
  table.SetHeader({"Mode", "queries/s", "vs static"});
  table.AddRow({"static MultiRegion baseline",
                TablePrinter::Num(result.baseline_qps, 0), "1.00"});
  table.AddRow({"ServingRuntime, obs disabled (median)",
                TablePrinter::Num(result.serving_qps_no_obs, 0),
                TablePrinter::Num(result.serving_qps_no_obs /
                                      result.baseline_qps, 2)});
  table.AddRow({"ServingRuntime, obs on (median)",
                TablePrinter::Num(result.serving_qps, 0),
                TablePrinter::Num(result.ratio, 2)});
  table.Print(std::cout);
  std::cout << "epochs published: " << result.epochs_published
            << " (mean interval "
            << TablePrinter::Num(result.mean_publish_interval_ms, 1)
            << " ms)\n";
  std::cout << "observability tax: "
            << TablePrinter::Num(result.obs_overhead_pct, 2)
            << "% QPS; trace ring: " << result.ring_events
            << " events, " << result.ring_dropped << " dropped\n";
  // Per-stage latency attribution from the recorded spans.
  {
    TablePrinter stages("Stage-attributed latency (obs-on storm spans)");
    stages.SetHeader({"Stage", "count", "mean (us)"});
    for (int i = 0; i < kNumSpanNames; ++i) {
      const auto& agg = result.stages[static_cast<size_t>(i)];
      if (agg.count == 0) continue;
      stages.AddRow({SpanNameString(static_cast<SpanName>(i)),
                     std::to_string(agg.count),
                     TablePrinter::Num(agg.MeanMicros(), 2)});
    }
    stages.Print(std::cout);
  }

  // -- Phase 4: shard-scaling curve -----------------------------------
  // The same storm against 1/2/4/8 band shards, recorder disabled so
  // the curve measures the scatter-gather path alone. Every spec runs on
  // its client's thread. Each row keeps the sizing rule clients x shards
  // ~ hardware threads, so the curve compares shard scaling rather than
  // time-slicing a fixed oversized storm. Only a row whose
  // minimum storm (2 clients x shards) still exceeds the box — in
  // practice the 8-shard row on small machines — is flagged
  // oversubscribed and exempted from the speedup gate.
  const int hw = ThreadPool::HardwareThreads();
  for (const int shards : {1, 2, 4, 8}) {
    const int row_clients = std::max(
        2, std::min(clients, shards > 1 ? hw / shards : hw - 1));
    TraceRecorder recorder;
    recorder.set_enabled(false);
    const std::string label =
        "storm (" + std::to_string(shards) + " shard" +
        (shards > 1 ? "s" : "") + ", " + std::to_string(row_clients) +
        " clients)";
    const StormOutcome outcome = RunStorm(
        dataset, pipeline->index(), regions, row_clients, strategy,
        &recorder, label.c_str(), shards);
    ShardScalingRow row;
    row.shards = shards;
    row.clients = row_clients;
    row.qps = outcome.qps;
    row.answered = outcome.answered;
    row.consistent =
        outcome.cross_shard_consistent && outcome.inconsistent == 0;
    row.pin_retries = outcome.pin_retries;
    row.oversubscribed = 2 * shards > hw;
    result.shard_scaling.push_back(row);
  }
  result.shard_speedup_4x =
      result.shard_scaling[2].qps /
      std::max(1.0, result.shard_scaling[0].qps);
  {
    TablePrinter scaling("Shard-scaling storm QPS (" +
                         std::to_string(hw) + " hardware threads)");
    scaling.SetHeader({"Shards", "clients", "queries/s", "vs 1 shard",
                       "pin retries"});
    for (const auto& row : result.shard_scaling) {
      scaling.AddRow(
          {std::to_string(row.shards) +
               (row.oversubscribed ? " (oversubscribed)" : ""),
           std::to_string(row.clients), TablePrinter::Num(row.qps, 0),
           TablePrinter::Num(
               row.qps / std::max(1.0, result.shard_scaling[0].qps), 2),
           std::to_string(row.pin_retries)});
    }
    scaling.Print(std::cout);
  }

  // -- Phase 5: publish cost vs churn ---------------------------------
  const PublishChurnResult publish = RunPublishChurn();

  const char* json_env = std::getenv("O4A_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_serving.json";
  if (!json_path.empty()) WriteJson(json_path, result, clients);
  const char* publish_env = std::getenv("O4A_PUBLISH_JSON");
  const std::string publish_path =
      publish_env != nullptr ? publish_env : "BENCH_publish.json";
  if (!publish_path.empty()) WritePublishJson(publish_path, publish);

  const bool throughput_ok = result.ratio >= 0.5;
  const bool cadence_ok = result.mean_publish_interval_ms <= 50.0;
  const bool consistent_ok = result.inconsistent == 0;
  const bool overhead_ok = result.obs_overhead_pct <= 5.0;
  bool shard_consistent_ok = true;
  for (const auto& row : result.shard_scaling) {
    shard_consistent_ok = shard_consistent_ok && row.consistent;
  }
  // The scaling gate needs real parallel headroom; it is skipped only
  // when the 4-shard row itself could not fit the machine.
  const bool gate_row_oversubscribed =
      result.shard_scaling[2].oversubscribed;
  const bool scaling_ok =
      gate_row_oversubscribed || result.shard_speedup_4x >= 2.0;
  PrintShapeCheck(
      "serving throughput within 2x of the static-store baseline",
      throughput_ok);
  PrintShapeCheck("an epoch published at least every 50 ms", cadence_ok);
  PrintShapeCheck("zero torn/inconsistent answers under the storm",
                  consistent_ok);
  PrintShapeCheck("always-on span recording costs <= 5% QPS",
                  overhead_ok);
  PrintShapeCheck(
      "every shard-scaling row consistent (bit-exact, zero torn pins)",
      shard_consistent_ok);
  PrintShapeCheck(
      gate_row_oversubscribed
          ? ">= 2x storm QPS at 4 shards (SKIPPED: oversubscribed box)"
          : ">= 2x storm QPS at 4 shards vs 1 shard",
      scaling_ok);
  // Publish-churn gates: incremental cost actually scales with the
  // dirty fraction, and 5% churn publishes >= 10x faster than a full
  // rebuild — the ISSUE-10 acceptance bar.
  const bool churn_scaling_ok =
      publish.curve.front().incremental_ms <
      publish.curve.back().incremental_ms;
  const bool churn_speedup_ok = publish.speedup_at_5pct >= 10.0;
  PrintShapeCheck(
      "incremental publish cost scales with the dirty fraction",
      churn_scaling_ok);
  PrintShapeCheck(">= 10x epochs/sec at 5% churn vs full rebuild",
                  churn_speedup_ok);

  const char* strict_env = std::getenv("O4A_BENCH_STRICT");
  const bool strict = strict_env == nullptr || std::atoi(strict_env) != 0;
  const bool ok = throughput_ok && cadence_ok && consistent_ok &&
                  overhead_ok && shard_consistent_ok && scaling_ok &&
                  churn_scaling_ok && churn_speedup_ok;
  return (ok || !strict) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Serving runtime: sustained throughput under epoch "
               "rolls ===\n";
  return one4all::bench::main_impl();
}
