// one4all_cli — command-line front end for the One4All-ST system.
//
//   one4all_cli generate --preset taxi --grid 32 --steps 1008 --out flows.bin
//   one4all_cli train    --flows flows.bin --window 2 --max-scale 32
//                        --epochs 15 --model model.bin
//   one4all_cli query    --flows flows.bin --model model.bin
//                        --rect 4,4,12,12 [--t <slot>] [--strategy usub]
//                        [--t0 <slot> --t1 <slot>] [--agg sum|mean|max]
//                        [--rects "r0,c0,r1,c1;..."] [--topk K] [--explain]
//                        [--shards N]
//   one4all_cli eval     --flows flows.bin --model model.bin --task 2
//   one4all_cli search-structure --flows flows.bin --budget 50000
//   one4all_cli serve    --flows flows.bin [--model model.bin]
//                        [--steps 24] [--clients 2] [--batch 64]
//                        [--publish-ms 20] [--retain 0] [--strategy usub]
//                        [--shards N] [--report-ms 0]
//                        [--metrics-out metrics.prom]
//                        [--trace-out trace.json] [--sample-every 16]
//   one4all_cli trace    --flows flows.bin [--model model.bin]
//                        [--steps 8] [--slowest 5] [--out trace.json]
//   one4all_cli scenario scenarios/happy_path.json
//
// `query` compiles the flags into a typed QuerySpec (point-in-time,
// time-range aggregation, multi-region group, or top-k ranking), plans
// it, and runs it through the QueryExecutor; `--explain` prints the
// compiled plan's stage pipeline. With `--shards N` the explain output
// additionally shows the scatter plan an N-band sharded deployment would
// run: each slot's home shard and how its atomic cells split across
// bands (answers are bit-identical across shard counts, so the offline
// executor's values stand for every N).
//
// `serve --shards N` runs the storm against the band-sharded topology:
// the ingestor publishes all N bands behind one epoch barrier and every
// query scatter-gathers across them; `--report-ms` delta lines then
// carry per-shard publish lag so a straggler band is visible live.
//
// `serve` runs the online loop end-to-end: a background ingestor replays
// N timesteps (model inference when --model is given, ground-truth
// aggregation otherwise), publishing each as an atomic epoch, while
// client threads fire a storm of mixed query shapes (--batch-region
// and 8-region multi-region, time-range and top-k specs) at the runtime;
// finishes by printing the serving telemetry block with per-spec-kind
// counts.
// `--report-ms N` additionally prints a periodic delta line (per-interval
// QPS, publish rate, rejects, trace-ring drops) while the storm runs;
// `--metrics-out` writes the final Prometheus exposition and
// `--trace-out` the recorded span events as Chrome trace_event JSON.
//
// `trace` runs the same serve workload with every span sampled
// (sample_every_n=1), prints the slowest-N per-query span trees with
// per-stage self-times, and writes the full Chrome/Perfetto trace JSON
// (load it in ui.perfetto.dev or chrome://tracing).
//
// `scenario` runs one declarative scenario spec (see scenarios/ and the
// README's scenario-harness section) through the deterministic workload
// engine and pretty-prints the verdict; exits non-zero when an invariant
// was violated. For the full golden-checked matrix use scenario_runner.
//
// The model file stores the network weights; a sidecar "<model>.meta"
// records the hierarchy/window configuration so `query`/`eval` can
// reconstruct the network before loading weights.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "data/flow_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "model/hierarchy_search.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "scenario/scenario_engine.h"
#include "scenario/scenario_spec.h"
#include "serve/serving_runtime.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"

using namespace one4all;

namespace {

// -- Tiny flag parser ------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

struct ModelMeta {
  int64_t grid = 32;
  int64_t window = 2;
  int64_t max_scale = 32;
  int64_t channels = 8;
};

Status SaveMeta(const ModelMeta& meta, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + path);
  std::fprintf(f, "grid=%lld\nwindow=%lld\nmax_scale=%lld\nchannels=%lld\n",
               static_cast<long long>(meta.grid),
               static_cast<long long>(meta.window),
               static_cast<long long>(meta.max_scale),
               static_cast<long long>(meta.channels));
  std::fclose(f);
  return Status::OK();
}

Result<ModelMeta> LoadMeta(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return Status::IOError("cannot read " + path);
  ModelMeta meta;
  char key[64];
  long long value = 0;
  while (std::fscanf(f, "%63[^=]=%lld\n", key, &value) == 2) {
    const std::string k = key;
    if (k == "grid") meta.grid = value;
    else if (k == "window") meta.window = value;
    else if (k == "max_scale") meta.max_scale = value;
    else if (k == "channels") meta.channels = value;
  }
  std::fclose(f);
  return meta;
}

Result<STDataset> LoadDataset(const std::string& flows_path,
                              const ModelMeta& meta) {
  O4A_ASSIGN_OR_RETURN(SyntheticFlows flows, LoadFlows(flows_path));
  if (flows.frames[0].dim(0) != meta.grid) {
    return Status::InvalidArgument("flow grid does not match model meta");
  }
  Hierarchy hierarchy =
      Hierarchy::Uniform(meta.grid, meta.grid, meta.window, meta.max_scale);
  return STDataset::Create(std::move(flows), hierarchy,
                           TemporalFeatureSpec{});
}

// -- Subcommands ------------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  const int64_t grid = flags.GetInt("grid", 32);
  SyntheticDataOptions options =
      flags.Get("preset", "taxi") == "freight"
          ? SyntheticDataOptions::FreightPreset(grid, grid)
          : SyntheticDataOptions::TaxiPreset(grid, grid);
  options.num_timesteps = flags.GetInt("steps", 24 * 7 * 6);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", options.seed));
  auto flows = GenerateSyntheticFlows(options);
  if (!flows.ok()) {
    std::cerr << flows.status().ToString() << "\n";
    return 1;
  }
  const std::string out = flags.Get("out", "flows.bin");
  Status st = SaveFlows(*flows, out);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << flows->frames.size() << " frames of " << grid
            << "x" << grid << " to " << out << "\n";
  return 0;
}

int CmdTrain(const Flags& flags) {
  ModelMeta meta;
  meta.grid = flags.GetInt("grid", 0);  // 0 -> derive from flows below
  meta.window = flags.GetInt("window", 2);
  meta.max_scale = flags.GetInt("max-scale", 32);
  meta.channels = flags.GetInt("channels", 8);
  auto flows = LoadFlows(flags.Get("flows", "flows.bin"));
  if (!flows.ok()) {
    std::cerr << flows.status().ToString() << "\n";
    return 1;
  }
  if (meta.grid == 0) meta.grid = flows->frames[0].dim(0);
  Hierarchy hierarchy =
      Hierarchy::Uniform(meta.grid, meta.grid, meta.window, meta.max_scale);
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(), hierarchy,
                                   TemporalFeatureSpec{});
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }

  One4AllNetOptions net_options;
  net_options.channels = meta.channels;
  net_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  One4AllNet net(dataset->hierarchy(), dataset->spec(), net_options);
  TrainOptions train_options;
  train_options.epochs = static_cast<int>(flags.GetInt("epochs", 15));
  train_options.learning_rate =
      static_cast<float>(flags.GetInt("lr-milli", 3)) * 1e-3f;
  train_options.early_stop_patience =
      static_cast<int>(flags.GetInt("patience", 0));
  train_options.verbose = true;
  const TrainReport report = TrainModel(
      &net, *dataset,
      [&net](const STDataset& ds, const std::vector<int64_t>& batch) {
        return net.Loss(ds, batch);
      },
      train_options);
  std::cout << "trained " << net.NumParameters() << " parameters over "
            << report.epochs_run << " epochs ("
            << report.seconds_per_epoch << " s/epoch)\n";

  const std::string model_path = flags.Get("model", "model.bin");
  Status st = net.Save(model_path);
  if (st.ok()) st = SaveMeta(meta, model_path + ".meta");
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::cout << "saved model to " << model_path << " (+ .meta)\n";
  return 0;
}

Result<std::unique_ptr<One4AllNet>> LoadModel(const std::string& model_path,
                                              const STDataset& dataset,
                                              const ModelMeta& meta) {
  One4AllNetOptions net_options;
  net_options.channels = meta.channels;
  auto net = std::make_unique<One4AllNet>(dataset.hierarchy(),
                                          dataset.spec(), net_options);
  O4A_RETURN_NOT_OK(net->Load(model_path));
  return net;
}

// Parses "r0,c0,r1,c1" (atomic cells, end-exclusive) into a filled mask.
std::optional<GridMask> ParseRect(const std::string& text, int64_t grid) {
  std::istringstream rect(text);
  int64_t r0, c0, r1, c1;
  char comma;
  rect >> r0 >> comma >> c0 >> comma >> r1 >> comma >> c1;
  if (!rect || r0 < 0 || r1 > grid || c0 < 0 || c1 > grid || r0 >= r1 ||
      c0 >= c1) {
    return std::nullopt;
  }
  GridMask region(grid, grid);
  region.FillRect(r0, c0, r1, c1);
  return region;
}

QueryStrategy ParseStrategy(const Flags& flags) {
  const std::string name = flags.Get("strategy", "usub");
  return name == "direct" ? QueryStrategy::kDirect
         : name == "union" ? QueryStrategy::kUnion
                           : QueryStrategy::kUnionSubtraction;
}

int CmdQuery(const Flags& flags) {
  const std::string model_path = flags.Get("model", "model.bin");
  auto meta = LoadMeta(model_path + ".meta");
  if (!meta.ok()) {
    std::cerr << meta.status().ToString() << "\n";
    return 1;
  }
  auto dataset = LoadDataset(flags.Get("flows", "flows.bin"), *meta);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  auto net = LoadModel(model_path, *dataset, *meta);
  if (!net.ok()) {
    std::cerr << net.status().ToString() << "\n";
    return 1;
  }

  // Region set: --rects "a;b;c" (semicolon-separated rects) wins over the
  // single --rect.
  std::vector<GridMask> regions;
  {
    std::string rects = flags.Get("rects", flags.Get("rect", "0,0,4,4"));
    std::istringstream list(rects);
    std::string one;
    while (std::getline(list, one, ';')) {
      if (one.empty()) continue;
      auto region = ParseRect(one, meta->grid);
      if (!region.has_value()) {
        std::cerr << "bad rect \"" << one
                  << "\" (want r0,c0,r1,c1 inside the raster)\n";
        return 1;
      }
      regions.push_back(std::move(*region));
    }
  }
  if (regions.empty()) {
    std::cerr << "no regions given\n";
    return 1;
  }

  // Compile the flags into a typed QuerySpec.
  const int64_t t = flags.Has("t") ? flags.GetInt("t", 0)
                                   : dataset->test_indices()[0];
  const int64_t t0 = flags.GetInt("t0", t);
  const int64_t t1 = flags.GetInt("t1", t0);
  const std::string agg_name = flags.Get("agg", "sum");
  const TimeAggregation agg = agg_name == "mean" ? TimeAggregation::kMean
                              : agg_name == "max" ? TimeAggregation::kMax
                                                  : TimeAggregation::kSum;
  const QueryStrategy strategy = ParseStrategy(flags);
  QuerySpec spec;
  if (flags.Has("topk")) {
    spec = QuerySpec::TopK(std::move(regions), t0,
                           static_cast<int>(flags.GetInt("topk", 1)),
                           strategy);
  } else if (regions.size() > 1) {
    spec = QuerySpec::MultiRegion(std::move(regions), t0, strategy);
  } else if (t1 > t0) {
    spec = QuerySpec::TimeRange(std::move(regions[0]), t0, t1, agg,
                                strategy);
  } else {
    spec = QuerySpec::PointInTime(std::move(regions[0]), t0, strategy);
  }
  // Range selectors and aggregation compose with every shape.
  spec.time = TimeSelector::Range(t0, t1);
  spec.aggregation = agg;
  spec.keep_series = true;

  auto pipeline = MauPipeline::Build(net->get(), *dataset, SearchOptions{});
  QueryPlanner planner(&dataset->hierarchy());
  auto plan = planner.Plan(spec);
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }
  if (flags.Has("explain")) std::cout << plan->Describe();
  // --shards N previews the scatter plan of an N-band deployment; the
  // merge is bit-exact, so the single-store answers below stand for it.
  const int num_shards = static_cast<int>(flags.GetInt("shards", 1));
  ShardMap shard_map;
  if (num_shards > 1) {
    shard_map = ShardMap::Create(&dataset->hierarchy(), num_shards);
    std::cout << shard_map.ToString() << "\n";
    if (flags.Has("explain")) {
      std::cout << ShardRouter(&shard_map).DescribeSplit(*plan);
    }
  }
  // The query's cost is its span tree: every trace sampled, one root
  // around the executor, rendered after the answers.
  TraceRecorderOptions trace_options;
  trace_options.sample_every_n = 1;
  TraceRecorder recorder(trace_options);
  QueryResult result;
  {
    TraceContext trace = recorder.StartTrace(SpanCategory::kQuery);
    ScopedSpan query_span(&trace, SpanName::kQuery,
                          static_cast<int64_t>(spec.regions.size()));
    QueryExecutorOptions exec_options;
    exec_options.trace = &trace;
    result = QueryExecutor(&pipeline->server()).Execute(*plan, exec_options);
  }

  std::cout << spec.ToString() << "\n";
  for (size_t i = 0; i < result.rows.size(); ++i) {
    const auto& row = result.rows[i];
    if (!row.ok()) {
      std::cout << "region " << i << ": " << row.status().ToString()
                << "\n";
      continue;
    }
    // Fold the ground truth the same way the spec folds predictions.
    double truth = agg == TimeAggregation::kMax
                       ? RegionTruth(*dataset, spec.regions[i], spec.time.t0)
                       : 0.0;
    for (int64_t slot = spec.time.t0; slot <= spec.time.t1; ++slot) {
      const double v = RegionTruth(*dataset, spec.regions[i], slot);
      truth = agg == TimeAggregation::kMax ? std::max(truth, v) : truth + v;
    }
    if (agg == TimeAggregation::kMean) {
      truth /= static_cast<double>(spec.time.num_steps());
    }
    std::cout << "region " << i << ": predicted=" << row->value
              << " actual=" << truth << " pieces=" << row->num_pieces
              << " terms=" << row->num_terms << "\n";
  }
  if (spec.kind == QuerySpecKind::kTopK) {
    std::cout << "top-" << spec.top_k << ":";
    for (const int idx : result.top_k) std::cout << " region#" << idx;
    std::cout << "\n";
  }
  std::cout << RenderSlowestTraceTrees(recorder.Snapshot(), 1,
                                      recorder.dropped_events());
  return 0;
}

int CmdEval(const Flags& flags) {
  const std::string model_path = flags.Get("model", "model.bin");
  auto meta = LoadMeta(model_path + ".meta");
  if (!meta.ok()) {
    std::cerr << meta.status().ToString() << "\n";
    return 1;
  }
  auto dataset = LoadDataset(flags.Get("flows", "flows.bin"), *meta);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  auto net = LoadModel(model_path, *dataset, *meta);
  if (!net.ok()) {
    std::cerr << net.status().ToString() << "\n";
    return 1;
  }
  auto pipeline = MauPipeline::Build(net->get(), *dataset, SearchOptions{});
  const auto tasks = PaperTasks(flags.Get("preset", "taxi") == "freight");
  const int64_t which = flags.GetInt("task", 0);  // 0 = all
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (which != 0 && which != static_cast<int64_t>(i + 1)) continue;
    const auto regions = MakeTaskRegions(*dataset, tasks[i]);
    const auto result =
        pipeline->Evaluate(regions, QueryStrategy::kUnionSubtraction);
    std::cout << tasks[i].name << ": RMSE=" << result.rmse
              << " MAPE=" << result.mape << " over " << result.num_queries
              << " region queries\n";
  }
  return 0;
}

int CmdSearchStructure(const Flags& flags) {
  auto flows = LoadFlows(flags.Get("flows", "flows.bin"));
  if (!flows.ok()) {
    std::cerr << flows.status().ToString() << "\n";
    return 1;
  }
  HierarchySearchOptions options;
  options.max_scale = flags.GetInt("max-scale", 16);
  options.parameter_budget = flags.GetInt("budget", 0);
  options.train.epochs = static_cast<int>(flags.GetInt("epochs", 3));
  auto result =
      SearchHierarchyStructure(*flows, TemporalFeatureSpec{}, options);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  for (size_t i = 0; i < result->candidates.size(); ++i) {
    const auto& c = result->candidates[i];
    std::cout << (i == result->best_index ? "* " : "  ") << "windows={";
    for (size_t k = 0; k < c.windows.size(); ++k) {
      std::cout << (k ? "," : "") << c.windows[k];
    }
    std::cout << "} params=" << c.num_parameters;
    if (c.within_budget) {
      std::cout << " val_loss=" << c.val_loss;
    } else {
      std::cout << " (over budget, skipped)";
    }
    std::cout << "\n";
  }
  return 0;
}

// Shared engine for `serve` and `trace`: the trace subcommand is the
// same storm with head sampling disabled (every span recorded) and a
// span-tree report instead of the telemetry table.
int RunServeWorkload(const Flags& flags, bool trace_mode) {
  auto flows = LoadFlows(flags.Get("flows", "flows.bin"));
  if (!flows.ok()) {
    std::cerr << flows.status().ToString() << "\n";
    return 1;
  }

  // With --model, geometry comes from the sidecar meta and inference runs
  // the trained net; without, ground-truth aggregation serves as the
  // model-independent oracle (useful to exercise the runtime alone).
  ModelMeta meta;
  meta.grid = flows->frames[0].dim(0);
  meta.window = flags.GetInt("window", 2);
  meta.max_scale = flags.GetInt("max-scale", 32);
  std::unique_ptr<One4AllNet> net;
  if (flags.Has("model")) {
    const std::string model_path = flags.Get("model", "model.bin");
    auto loaded_meta = LoadMeta(model_path + ".meta");
    if (!loaded_meta.ok()) {
      std::cerr << loaded_meta.status().ToString() << "\n";
      return 1;
    }
    meta = *loaded_meta;
    if (flows->frames[0].dim(0) != meta.grid) {
      std::cerr << "flow grid does not match model meta\n";
      return 1;
    }
  }
  Hierarchy hierarchy =
      Hierarchy::Uniform(meta.grid, meta.grid, meta.window, meta.max_scale);
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(), hierarchy,
                                   TemporalFeatureSpec{});
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  if (flags.Has("model")) {
    auto loaded = LoadModel(flags.Get("model", "model.bin"), *dataset, meta);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 1;
    }
    net = loaded.MoveValueUnsafe();
  }

  // Offline phase: combination search + quad-tree index.
  HistoryMeanPredictor hm;
  FlowPredictor* predictor =
      net != nullptr ? static_cast<FlowPredictor*>(net.get()) : &hm;
  auto pipeline = MauPipeline::Build(predictor, *dataset, SearchOptions{});
  std::cout << "offline index ready (" << predictor->Name() << ", "
            << dataset->hierarchy().num_layers() << " layers)\n";

  // Private recorder so every run starts with an empty ring. `trace`
  // records every span of every query; `serve` keeps the default 1-in-N
  // head sampler (interior spans) with roots always recorded.
  TraceRecorderOptions recorder_options;
  recorder_options.sample_every_n = static_cast<int>(
      flags.GetInt("sample-every", trace_mode ? 1 : 16));
  recorder_options.ring_capacity = static_cast<size_t>(
      flags.GetInt("ring-capacity", int64_t{1} << 16));
  TraceRecorder recorder(recorder_options);

  ServingRuntimeOptions options;
  options.trace = &recorder;
  const auto& slots = dataset->test_indices();
  options.ingest.start_t = slots.front();
  options.ingest.num_timesteps =
      std::min<int64_t>(flags.GetInt("steps", trace_mode ? 8 : 24),
                        static_cast<int64_t>(slots.size()));
  options.ingest.min_publish_interval_ms = flags.GetInt("publish-ms", 20);
  options.retain_timesteps = flags.GetInt("retain", 0);
  options.num_shards = static_cast<int>(flags.GetInt("shards", 1));
  FrameInference inference =
      net != nullptr ? MakeOne4AllInference(net.get(), dataset.operator->())
                     : MakeGroundTruthInference(dataset.operator->());
  ServingRuntime runtime(&dataset->hierarchy(), &pipeline->index(),
                         dataset.operator->(), std::move(inference),
                         options);
  ShardSet& shards = runtime.shards();

  // Synthetic query storm against the rolling runtime.
  RegionGeneratorOptions region_options;
  region_options.style = RegionStyle::kVoronoi;
  region_options.mean_cells = 12.0;
  const auto regions = GenerateRegions(meta.grid, meta.grid, region_options);
  const int clients = static_cast<int>(flags.GetInt("clients", 2));
  const int batch_size = static_cast<int>(flags.GetInt("batch", 64));
  const QueryStrategy strategy = ParseStrategy(flags);

  runtime.Start();
  runtime.ingestor().WaitUntilPublished(options.ingest.start_t);

  // Periodic delta reporter: one line per interval with the rates since
  // the previous line, so a stall (publish rate 0) or an overload wave
  // (rejects spiking) is visible while the storm is still running.
  const int64_t report_ms = flags.GetInt("report-ms", 0);
  std::atomic<bool> report_stop{false};
  std::thread reporter;
  if (report_ms > 0) {
    reporter = std::thread([&] {
      ServingTelemetrySnapshot prev = runtime.Telemetry();
      int64_t prev_drops = recorder.dropped_events();
      auto next_tick = std::chrono::steady_clock::now();
      while (!report_stop.load(std::memory_order_relaxed)) {
        next_tick += std::chrono::milliseconds(report_ms);
        // Sleep in short slices so shutdown never waits a full interval.
        while (std::chrono::steady_clock::now() < next_tick) {
          if (report_stop.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const ServingTelemetrySnapshot now = runtime.Telemetry();
        const int64_t drops = recorder.dropped_events();
        const double secs = static_cast<double>(report_ms) / 1000.0;
        std::ostringstream line;  // one syscall, storm-safe interleaving
        line << "[telemetry] qps="
             << TablePrinter::Num(
                    static_cast<double>(now.queries_served -
                                        prev.queries_served) / secs, 0)
             << " publish/s="
             << TablePrinter::Num(
                    static_cast<double>(now.epochs_published -
                                        prev.epochs_published) / secs, 1)
             << " rejected=+" << (now.queries_rejected - prev.queries_rejected)
             << " failed=+" << (now.queries_failed - prev.queries_failed)
             << " ring-drops=+" << (drops - prev_drops);
        if (shards.num_shards() > 1) {
          // Per-shard barrier lag: one straggler band stalls the whole
          // flip, so the max of these is the publish-side health signal.
          line << " shard-lag-ms=[";
          for (int k = 0; k < shards.num_shards(); ++k) {
            if (k > 0) line << " ";
            line << "s" << k << ":"
                 << TablePrinter::Num(shards.PublishLagMs(k), 1);
          }
          line << "]";
        }
        line << "\n";
        std::cout << line.str() << std::flush;
        prev = now;
        prev_drops = drops;
      }
    });
  }

  std::vector<std::thread> storm;
  for (int c = 0; c < clients; ++c) {
    storm.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(7 + c));
      // Mixed-shape storm: `--batch`-region groups, plus the other
      // spec shapes, so the per-spec-kind telemetry below sees traffic.
      int shape = c;
      while (!runtime.ingestor().done()) {
        const int64_t latest = runtime.published_latest_t();
        const int64_t span = latest - options.ingest.start_t + 1;
        auto random_region = [&] {
          return regions[static_cast<size_t>(rng.UniformInt(regions.size()))];
        };
        auto random_t = [&] {
          return options.ingest.start_t +
                 static_cast<int64_t>(
                     rng.UniformInt(static_cast<uint64_t>(span)));
        };
        // Admission rejects and per-query failures are counted by the
        // runtime's telemetry, rendered below.
        switch (shape++ % 4) {
          case 0: {
            std::vector<GridMask> batch;
            for (int i = 0; i < batch_size; ++i) {
              batch.push_back(random_region());
            }
            (void)runtime.ExecuteSpec(QuerySpec::MultiRegion(
                std::move(batch), random_t(), strategy));
            break;
          }
          case 1: {
            (void)runtime.ExecuteSpec(QuerySpec::TimeRange(
                random_region(), options.ingest.start_t,
                options.ingest.start_t + (span - 1) / 2,
                TimeAggregation::kMean, strategy));
            break;
          }
          case 2: {
            std::vector<GridMask> group;
            for (int i = 0; i < 8; ++i) group.push_back(random_region());
            (void)runtime.ExecuteSpec(
                QuerySpec::MultiRegion(std::move(group), random_t(),
                                       strategy));
            break;
          }
          default: {
            std::vector<GridMask> group;
            for (int i = 0; i < 8; ++i) group.push_back(random_region());
            (void)runtime.ExecuteSpec(
                QuerySpec::TopK(std::move(group), random_t(), 3, strategy));
            break;
          }
        }
      }
    });
  }
  for (auto& client : storm) client.join();
  report_stop.store(true, std::memory_order_relaxed);
  if (reporter.joinable()) reporter.join();
  runtime.Stop();
  if (!runtime.ingestor().status().ok()) {
    std::cerr << runtime.ingestor().status().ToString() << "\n";
    return 1;
  }

  std::cout << "served " << options.ingest.num_timesteps
            << " timesteps under a " << clients << "-client storm ("
            << regions.size() << " distinct regions, groups of "
            << batch_size << ")\n";
  if (shards.num_shards() > 1) {
    std::cout << "shard topology: " << shards.num_shards()
              << " band shards, barrier "
              << (shards.Consistent() ? "consistent" : "INCONSISTENT")
              << ", torn pins " << shards.torn_pins() << "\n";
  }

  if (trace_mode) {
    const std::vector<TraceEvent> events = recorder.Snapshot();
    std::cout << RenderSlowestTraceTrees(
        events, static_cast<int>(flags.GetInt("slowest", 5)),
        recorder.dropped_events());
    const std::string out = flags.Get("out", "trace.json");
    Status st = WriteChromeTraceFile(out, events, recorder.dropped_events());
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << events.size() << " trace events to " << out
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
    return 0;
  }

  runtime.Telemetry().Render().Print(std::cout);
  // Queries resolve through the per-shard caches; the summed stats
  // reflect the caches actually probed.
  const ResolvedQueryCacheStats cache_stats = shards.CacheStats();
  std::cout << "resolve cache: hit rate "
            << TablePrinter::Num(cache_stats.hit_rate() * 100.0, 1)
            << "% over " << (cache_stats.hits + cache_stats.misses)
            << " lookups\n";
  // Ring accounting is always reported — a saturated ring must never be
  // silent, even without --trace-out.
  std::cout << "trace ring: " << recorder.total_events()
            << " events recorded, " << recorder.dropped_events()
            << " dropped (capacity " << recorder.ring_capacity() << ")\n";

  if (flags.Has("metrics-out")) {
    // Ring health rides along in the scrape as callback gauges; the
    // recorder outlives the registry (declared earlier in this frame).
    MetricsRegistry& registry = runtime.telemetry().registry();
    registry.RegisterCallbackGauge(
        "one4all_trace_ring_events", "Trace events appended to the ring",
        "", [&recorder] {
          return static_cast<double>(recorder.total_events());
        });
    registry.RegisterCallbackGauge(
        "one4all_trace_ring_dropped",
        "Trace events lost to ring overwrite or contention", "",
        [&recorder] {
          return static_cast<double>(recorder.dropped_events());
        });
    const std::string path = flags.Get("metrics-out", "metrics.prom");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << registry.ExpositionText();
    out.close();
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    std::cout << "wrote Prometheus exposition (" << registry.num_metrics()
              << " metric families) to " << path << "\n";
  }
  if (flags.Has("trace-out")) {
    const std::string path = flags.Get("trace-out", "trace.json");
    const std::vector<TraceEvent> events = recorder.Snapshot();
    Status st =
        WriteChromeTraceFile(path, events, recorder.dropped_events());
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote " << events.size() << " trace events to " << path
              << "\n";
  }
  return 0;
}

int CmdServe(const Flags& flags) { return RunServeWorkload(flags, false); }

int CmdTrace(const Flags& flags) { return RunServeWorkload(flags, true); }

int CmdScenario(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
    std::cerr << "usage: one4all_cli scenario <spec.json>\n";
    return 2;
  }
  auto spec = LoadScenarioSpec(argv[2]);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  auto verdict = RunScenario(*spec);
  if (!verdict.ok()) {
    std::cerr << verdict.status().ToString() << "\n";
    return 1;
  }
  verdict->Render().Print(std::cout);
  if (!verdict->passed()) {
    std::cerr << "scenario " << spec->name << ": invariant violated\n";
    return 1;
  }
  return 0;
}

int Usage() {
  std::cerr << "usage: one4all_cli <generate|train|query|eval|"
               "search-structure|serve|trace|scenario> [--flags]\n(see the "
               "header comment of tools/one4all_cli.cc for examples)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "search-structure") return CmdSearchStructure(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "trace") return CmdTrace(flags);
  if (command == "scenario") return CmdScenario(argc, argv);
  return Usage();
}
