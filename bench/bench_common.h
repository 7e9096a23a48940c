// Shared configuration and builders for the experiment harness: one
// binary per paper table/figure links against this. All benches run on a
// 32x32 raster (the paper's 128x128 scaled down for CPU-only CI) with the
// paper's hierarchical structure P={1,2,4,8,16,32} and temporal inputs
// (6 closeness / 7 daily / 4 weekly observations).
#ifndef ONE4ALL_BENCH_BENCH_COMMON_H_
#define ONE4ALL_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/table_printer.h"
#include "eval/task_eval.h"
#include "model/baselines_cnn.h"
#include "model/baselines_graph.h"
#include "model/baselines_simple.h"
#include "model/multi_model.h"
#include "model/one4all_net.h"
#include "model/trainer.h"

namespace one4all {
namespace bench {

/// \brief Harness-wide knobs; environment variables O4A_BENCH_EPOCHS,
/// O4A_BENCH_BATCHES and O4A_BENCH_GRID override the defaults.
struct BenchConfig {
  int64_t grid = 32;
  int64_t max_scale = 32;
  int64_t timesteps = 24 * 7 * 6;  ///< six weeks of hourly flows
  int64_t channels = 8;
  int epochs = 15;
  int max_batches_per_epoch = 0;  ///< 0 = full epochs
  int batch_size = 8;
  float learning_rate = 3e-3f;
  /// Train to convergence (validation early stopping) instead of a fixed
  /// epoch budget — the paper's methodology. Used by the accuracy benches;
  /// cost/ablation benches keep fixed budgets for comparability.
  bool early_stopping = false;
  int early_stop_patience = 3;

  static BenchConfig FromEnv();

  TrainOptions MakeTrainOptions(uint64_t seed) const;
};

/// \brief Which synthetic workload stands in for which paper dataset.
enum class DatasetKind { kTaxi, kFreight };

const char* DatasetName(DatasetKind kind);

/// \brief Builds the dataset for a workload (paper temporal spec).
STDataset MakeBenchDataset(DatasetKind kind, const BenchConfig& config);

/// \brief Builds + trains the full One4All-ST model.
std::unique_ptr<One4AllNet> TrainOne4All(const STDataset& dataset,
                                         const BenchConfig& config,
                                         One4AllNetOptions options,
                                         TrainReport* report = nullptr);

/// \brief Trains any SingleScaleNet-style model in place.
TrainReport TrainSingleScale(SingleScaleNet* net, const STDataset& dataset,
                             const BenchConfig& config, uint64_t seed);

/// \brief A named, trained predictor plus its bookkeeping.
struct NamedPredictor {
  std::string name;
  std::unique_ptr<FlowPredictor> predictor;
  /// Raw pointer to the same object when it is a MultiModelPredictor
  /// (needed for TrainAll); null otherwise.
  MultiModelPredictor* multi = nullptr;
  McStgcnNet* mc_stgcn = nullptr;
  TrainReport train_report;
  int64_t num_parameters = 0;
};

/// \brief Builds and trains every Table I baseline in paper order:
/// HM, XGBoost, ST-ResNet, GWN, ST-MGCN, GMAN, STRN, MC-STGCN, STMeta.
std::vector<NamedPredictor> TrainBaselines(const STDataset& dataset,
                                           const BenchConfig& config);

/// \brief Builds and trains the enhanced methods M-ST-ResNet and M-STRN.
std::vector<NamedPredictor> TrainEnhanced(const STDataset& dataset,
                                          const BenchConfig& config);

/// \brief Evaluates a predictor on one task the way Table I does:
/// baselines aggregate atomic predictions; MC-STGCN uses cluster-first;
/// multi-scale methods (enhanced + One4All-ST) run the full MAU pipeline
/// with union+subtraction combinations.
QueryEvalResult EvaluateForTable1(NamedPredictor* entry,
                                  const STDataset& dataset,
                                  const std::vector<GridMask>& regions);

/// \brief Prints a "shape check" line: the qualitative claim and whether
/// our measurements reproduce it.
void PrintShapeCheck(const std::string& claim, bool holds);

/// \brief Integer env-var override; `fallback` when unset.
int64_t EnvInt(const char* name, int64_t fallback);

/// \brief The host a measurement was taken on, as a JSON object:
/// nproc, CPU model, compiler, CMake build type and the git commit of
/// the working directory ("unknown" outside a checkout, "-dirty" when
/// tracked files differ from it).
std::string HostEnvelopeJson();

}  // namespace bench
}  // namespace one4all

#endif  // ONE4ALL_BENCH_BENCH_COMMON_H_
