// Reproduces Fig. 15: online response time per region query (decompose +
// index retrieval, the paper's definition) across the four tasks on both
// workloads. The paper reports <2 ms average and <20 ms maximum.
#include <algorithm>
#include <iostream>

#include "bench_common.h"

namespace one4all {
namespace bench {
namespace {

// Response time does not depend on model quality, so the cheap HM
// predictor fills the pipeline.
void RunDataset(DatasetKind kind, const BenchConfig& config) {
  const STDataset dataset = MakeBenchDataset(kind, config);
  HistoryMeanPredictor hm;
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});

  TablePrinter table(std::string("Response time — ") + DatasetName(kind));
  table.SetHeader({"Task", "mean (ms)", "p95 (ms)", "max (ms)",
                   "mean pieces", "mean terms"});
  bool mean_under_2ms = true, max_under_20ms = true;
  double prev_mean = -1.0;
  bool grows_with_scale = true;
  for (const TaskSpec& task : PaperTasks(kind == DatasetKind::kFreight)) {
    const auto regions = MakeTaskRegions(dataset, task);
    std::vector<double> times;
    double pieces = 0.0, terms = 0.0;
    for (const GridMask& region : regions) {
      auto resolved = pipeline->server().Resolve(
          region, QueryStrategy::kUnionSubtraction);
      O4A_CHECK(resolved.ok());
      times.push_back(
          (resolved->decompose_micros + resolved->index_micros) / 1000.0);
      pieces += resolved->num_pieces;
      terms += static_cast<double>(resolved->terms.size());
    }
    std::sort(times.begin(), times.end());
    double mean = 0.0;
    for (double v : times) mean += v;
    mean /= static_cast<double>(times.size());
    const double p95 = times[static_cast<size_t>(
        0.95 * static_cast<double>(times.size() - 1))];
    const double mx = times.back();
    table.AddRow({task.name, TablePrinter::Num(mean, 3),
                  TablePrinter::Num(p95, 3), TablePrinter::Num(mx, 3),
                  TablePrinter::Num(pieces / times.size(), 1),
                  TablePrinter::Num(terms / times.size(), 1)});
    mean_under_2ms &= mean < 2.0;
    max_under_20ms &= mx < 20.0;
    if (prev_mean >= 0.0 && mean + 0.05 < prev_mean) {
      // Allow noise; the trend should be non-decreasing with task scale.
      grows_with_scale = grows_with_scale && (mean > prev_mean * 0.5);
    }
    prev_mean = mean;
  }
  table.Print(std::cout);
  PrintShapeCheck(std::string(DatasetName(kind)) +
                      ": average response < 2 ms per query",
                  mean_under_2ms);
  PrintShapeCheck(std::string(DatasetName(kind)) +
                      ": maximum response < 20 ms per query",
                  max_under_20ms);
  PrintShapeCheck(std::string(DatasetName(kind)) +
                      ": response time grows with task scale (roughly)",
                  grows_with_scale);
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  using namespace one4all::bench;
  std::cout << "=== Fig. 15 reproduction: response time to region queries "
               "===\n(paper: avg < 2 ms, max < 20 ms on 128x128; ours is a "
               "32x32 raster — the budget holds with wide margin)\n";
  const BenchConfig config = BenchConfig::FromEnv();
  RunDataset(DatasetKind::kTaxi, config);
  RunDataset(DatasetKind::kFreight, config);
  return 0;
}
