#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/stopwatch.h"

namespace one4all {
namespace bench {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  return std::strtoll(value, nullptr, 10);
}

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  config.grid = EnvInt("O4A_BENCH_GRID", config.grid);
  config.epochs = static_cast<int>(EnvInt("O4A_BENCH_EPOCHS", config.epochs));
  config.max_batches_per_epoch = static_cast<int>(
      EnvInt("O4A_BENCH_BATCHES", config.max_batches_per_epoch));
  return config;
}

TrainOptions BenchConfig::MakeTrainOptions(uint64_t seed) const {
  TrainOptions options;
  options.epochs = epochs;
  options.batch_size = batch_size;
  options.learning_rate = learning_rate;
  options.max_batches_per_epoch = max_batches_per_epoch;
  options.seed = seed;
  if (early_stopping) {
    options.early_stop_patience = early_stop_patience;
    options.lr_decay = 0.97f;
  }
  return options;
}

const char* DatasetName(DatasetKind kind) {
  return kind == DatasetKind::kTaxi ? "Taxi NYC" : "Freight Transport";
}

STDataset MakeBenchDataset(DatasetKind kind, const BenchConfig& config) {
  SyntheticDataOptions options =
      kind == DatasetKind::kTaxi
          ? SyntheticDataOptions::TaxiPreset(config.grid, config.grid)
          : SyntheticDataOptions::FreightPreset(config.grid, config.grid);
  options.num_timesteps = config.timesteps;
  auto flows = GenerateSyntheticFlows(options);
  O4A_CHECK(flows.ok()) << flows.status().ToString();
  Hierarchy hierarchy =
      Hierarchy::Uniform(config.grid, config.grid, 2, config.max_scale);
  TemporalFeatureSpec spec;  // paper defaults: 6 / 7 / 4, d=24, w=168
  auto dataset =
      STDataset::Create(flows.MoveValueUnsafe(), hierarchy, spec);
  O4A_CHECK(dataset.ok()) << dataset.status().ToString();
  return dataset.MoveValueUnsafe();
}

std::unique_ptr<One4AllNet> TrainOne4All(const STDataset& dataset,
                                         const BenchConfig& config,
                                         One4AllNetOptions options,
                                         TrainReport* report) {
  options.channels = config.channels;
  auto net =
      std::make_unique<One4AllNet>(dataset.hierarchy(), dataset.spec(),
                                   options);
  One4AllNet* raw = net.get();
  TrainReport r = TrainModel(
      raw, dataset,
      [raw](const STDataset& ds, const std::vector<int64_t>& batch) {
        return raw->Loss(ds, batch);
      },
      config.MakeTrainOptions(options.seed + 17));
  if (report) *report = r;
  return net;
}

TrainReport TrainSingleScale(SingleScaleNet* net, const STDataset& dataset,
                             const BenchConfig& config, uint64_t seed) {
  return TrainModel(
      net, dataset,
      [net](const STDataset& ds, const std::vector<int64_t>& batch) {
        return net->Loss(ds, batch);
      },
      config.MakeTrainOptions(seed));
}

std::vector<NamedPredictor> TrainBaselines(const STDataset& dataset,
                                           const BenchConfig& config) {
  std::vector<NamedPredictor> out;
  const int64_t d = config.channels;
  const TemporalFeatureSpec& spec = dataset.spec();

  {
    NamedPredictor entry;
    entry.name = "HM";
    entry.predictor = std::make_unique<HistoryMeanPredictor>();
    out.push_back(std::move(entry));
  }
  {
    NamedPredictor entry;
    entry.name = "XGBoost";
    auto gbrt = std::make_unique<GbrtPredictor>();
    Stopwatch timer;
    gbrt->Fit(dataset);
    entry.train_report.total_seconds = timer.ElapsedSeconds();
    entry.predictor = std::move(gbrt);
    out.push_back(std::move(entry));
  }

  auto add_single = [&](std::unique_ptr<SingleScaleNet> net,
                        const std::string& name, uint64_t seed) {
    NamedPredictor entry;
    entry.name = name;
    entry.num_parameters = net->NumParameters();
    entry.train_report = TrainSingleScale(net.get(), dataset, config, seed);
    entry.predictor = std::move(net);
    out.push_back(std::move(entry));
  };

  add_single(std::make_unique<StResNetNet>(spec, d, 3, 211), "ST-ResNet",
             311);
  // GWN's dense adaptive adjacency is O(nodes^2); cap the node lattice
  // like the other graph baselines so CPU training stays tractable.
  add_single(std::make_unique<GwnNet>(dataset.hierarchy(), spec, d, 8, 256,
                                      212),
             "GWN", 312);
  add_single(std::make_unique<StMgcnNet>(dataset, d, 256, 213), "ST-MGCN",
             313);
  add_single(std::make_unique<GmanNet>(dataset.hierarchy(), spec, d, 256,
                                       214),
             "GMAN", 314);
  add_single(std::make_unique<StrnNet>(spec, d, 4, 215), "STRN", 315);

  {
    // MC-STGCN: bi-scale; cluster scale 8 (layer 4) as a road-cluster
    // analogue.
    const int cluster_layer =
        std::min(4, dataset.hierarchy().num_layers());
    auto net = std::make_unique<McStgcnNet>(dataset.hierarchy(), spec, d,
                                            cluster_layer, 216);
    NamedPredictor entry;
    entry.name = "MC-STGCN";
    entry.num_parameters = net->NumParameters();
    McStgcnNet* raw = net.get();
    entry.train_report = TrainModel(
        raw, dataset,
        [raw](const STDataset& ds, const std::vector<int64_t>& batch) {
          return raw->Loss(ds, batch);
        },
        config.MakeTrainOptions(316));
    entry.mc_stgcn = raw;
    entry.predictor = std::move(net);
    out.push_back(std::move(entry));
  }

  add_single(std::make_unique<StMetaNet>(spec, d, 217), "STMeta", 317);
  return out;
}

std::vector<NamedPredictor> TrainEnhanced(const STDataset& dataset,
                                          const BenchConfig& config) {
  std::vector<NamedPredictor> out;
  const int64_t d = config.channels;
  const TemporalFeatureSpec& spec = dataset.spec();

  auto add_multi = [&](const std::string& name,
                       const MultiModelPredictor::Builder& builder,
                       uint64_t seed) {
    NamedPredictor entry;
    entry.name = name;
    auto multi =
        std::make_unique<MultiModelPredictor>(name, dataset, builder, seed);
    entry.multi = multi.get();
    entry.train_report =
        multi->TrainAll(dataset, config.MakeTrainOptions(seed + 5));
    entry.num_parameters = multi->NumParameters();
    entry.predictor = std::move(multi);
    out.push_back(std::move(entry));
  };

  add_multi(
      "M-ST-ResNet",
      [&spec, d](int layer, uint64_t seed) {
        return std::make_unique<StResNetNet>(spec, d, 3, seed, layer);
      },
      411);
  add_multi(
      "M-STRN",
      [&spec, d](int layer, uint64_t seed) {
        return std::make_unique<StrnNet>(spec, d, 2, seed, layer);
      },
      412);
  return out;
}

QueryEvalResult EvaluateForTable1(NamedPredictor* entry,
                                  const STDataset& dataset,
                                  const std::vector<GridMask>& regions) {
  // MC-STGCN: cluster-first strategy from the paper's baseline setup.
  if (entry->mc_stgcn != nullptr) {
    return EvaluateClusterPlusAtomic(entry->predictor.get(), dataset,
                                     entry->mc_stgcn->cluster_layer(),
                                     regions, dataset.test_indices());
  }
  // Multi-scale native methods run the full MAU pipeline.
  const auto native = entry->predictor->NativeLayers(dataset);
  if (static_cast<int>(native.size()) == dataset.hierarchy().num_layers()) {
    auto pipeline = MauPipeline::Build(entry->predictor.get(), dataset,
                                       SearchOptions{});
    return pipeline->Evaluate(regions, QueryStrategy::kUnionSubtraction);
  }
  // Single-scale baselines aggregate atomic predictions.
  return EvaluateAtomicAggregation(entry->predictor.get(), dataset, regions,
                                   dataset.test_indices());
}

void PrintShapeCheck(const std::string& claim, bool holds) {
  std::cout << (holds ? "[SHAPE OK]   " : "[SHAPE MISS] ") << claim << "\n";
}

namespace {

// First line of a shell command's stdout, "" when it fails.
std::string CommandLine(const char* command) {
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return "";
  char buffer[256];
  std::string line;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) line = buffer;
  const int status = pclose(pipe);
  if (status != 0) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

}  // namespace

std::string HostEnvelopeJson() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    if (value != std::string::npos) cpu_model = line.substr(value);
    break;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string sha = CommandLine("git rev-parse --short HEAD 2>/dev/null");
  if (sha.empty()) {
    sha = "unknown";
  } else if (!CommandLine("git status --porcelain --untracked-files=no "
                          "2>/dev/null")
                  .empty()) {
    sha += "-dirty";
  }
  std::ostringstream js;
  js << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << cpu_model << "\", \"compiler\": \""
     << compiler << "\", \"build_type\": \"" << ONE4ALL_BUILD_TYPE
     << "\", \"git_sha\": \"" << sha << "\"}";
  return js.str();
}

}  // namespace bench
}  // namespace one4all
