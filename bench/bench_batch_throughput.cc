// Throughput of the region-query engine: queries/sec of MultiRegion
// specs planned and run by the QueryExecutor on the calling thread
// (frame memoization + sharded LRU resolve cache), against the
// one-query-at-a-time Predict loop the seed served from. Production traffic re-queries the same areal units
// (tracts, hexagons, road segments) across time slots, so the stream
// cycles a fixed region set over many slots, one spec per slot.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/stopwatch.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"

namespace one4all {
namespace bench {
namespace {

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  double qps = 0.0;
  double speedup = 1.0;
};

/// \brief `target_queries` (region, t) queries as MultiRegion specs, one
/// per time slot: the region set cycles across the test slots until the
/// stream is long enough — the region-reuse pattern the resolve cache is
/// built for.
std::vector<QuerySpec> MakeQueryStream(const STDataset& dataset,
                                       int64_t target_queries,
                                       QueryStrategy strategy) {
  RegionGeneratorOptions options;
  options.style = RegionStyle::kVoronoi;
  options.mean_cells = 12.0;
  options.seed = 17;
  const auto regions = GenerateRegions(dataset.hierarchy().atomic_height(),
                                       dataset.hierarchy().atomic_width(),
                                       options);
  O4A_CHECK(!regions.empty());
  const auto& slots = dataset.test_indices();
  std::vector<QuerySpec> stream;
  int64_t queries = 0;
  for (size_t s = 0; queries < target_queries; s = (s + 1) % slots.size()) {
    const int64_t n = std::min(static_cast<int64_t>(regions.size()),
                               target_queries - queries);
    stream.push_back(QuerySpec::MultiRegion(
        std::vector<GridMask>(regions.begin(), regions.begin() + n),
        slots[s], strategy));
    queries += n;
  }
  std::cout << "query stream: " << queries << " queries over "
            << regions.size() << " distinct regions x " << slots.size()
            << " time slots (" << stream.size() << " specs)\n";
  return stream;
}

int main_impl() {
  BenchConfig config = BenchConfig::FromEnv();
  const char* env_queries = std::getenv("O4A_BENCH_QUERIES");
  int64_t num_queries = env_queries != nullptr ? std::atoll(env_queries) : 0;
  if (num_queries <= 0) {
    if (env_queries != nullptr) {
      std::cerr << "ignoring O4A_BENCH_QUERIES=\"" << env_queries
                << "\" (want a positive integer)\n";
    }
    num_queries = 4000;
  }

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  HistoryMeanPredictor hm;  // throughput is model-independent
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});
  const RegionQueryServer& server = pipeline->server();
  const QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
  const auto stream = MakeQueryStream(dataset, num_queries, strategy);

  std::vector<ModeResult> modes;
  double reference_checksum = 0.0;

  // Baseline: the seed's serving loop — sequential Predict per query.
  {
    Stopwatch timer;
    double sum = 0.0;
    for (const QuerySpec& spec : stream) {
      for (const GridMask& region : spec.regions) {
        auto response = server.Predict(region, spec.time.t0, strategy);
        O4A_CHECK(response.ok());
        sum += response->value;
      }
    }
    ModeResult mode;
    mode.name = "sequential Predict loop";
    mode.seconds = timer.ElapsedSeconds();
    modes.push_back(mode);
    reference_checksum = sum;
  }

  const QueryPlanner planner(&dataset.hierarchy());
  const QueryExecutor executor(&server);
  {
    ResolvedQueryCache cache;
    QueryExecutorOptions options;
    options.cache = &cache;
    std::vector<QuerySpec> specs = stream;  // copied outside the timer
    double checksum = 0.0;
    Stopwatch timer;
    for (QuerySpec& spec : specs) {
      auto plan = planner.Plan(std::move(spec));
      O4A_CHECK(plan.ok()) << plan.status().ToString();
      for (const auto& row : executor.Execute(*plan, options).rows) {
        O4A_CHECK(row.ok()) << row.status().ToString();
        checksum += row->value;
      }
    }
    ModeResult mode;
    mode.seconds = timer.ElapsedSeconds();
    mode.name = "MultiRegion specs, cache";
    O4A_CHECK(std::abs(checksum - reference_checksum) <
              1e-6 * (1.0 + std::abs(reference_checksum)))
        << "spec checksum drifted from sequential";
    const auto stats = cache.Stats();
    std::cout << mode.name << ": cache hits=" << stats.hits
              << " misses=" << stats.misses
              << " evictions=" << stats.evictions << "\n";
    modes.push_back(mode);
  }

  TablePrinter table("Region-query throughput (" +
                     std::to_string(dataset.hierarchy().atomic_height()) +
                     "x" +
                     std::to_string(dataset.hierarchy().atomic_width()) +
                     " raster, Union & Subtraction)");
  table.SetHeader({"Mode", "time (s)", "queries/s", "speedup"});
  const double base_seconds = modes.front().seconds;
  double best_speedup = 0.0;
  for (ModeResult& mode : modes) {
    mode.qps = static_cast<double>(num_queries) / mode.seconds;
    mode.speedup = base_seconds / mode.seconds;
    best_speedup = std::max(best_speedup, mode.speedup);
    table.AddRow({mode.name, TablePrinter::Num(mode.seconds, 3),
                  TablePrinter::Num(mode.qps, 0),
                  TablePrinter::Num(mode.speedup, 2)});
  }
  table.Print(std::cout);
  PrintShapeCheck(
      "MultiRegion specs beat the sequential loop by more than 2x",
      best_speedup > 2.0);
  return best_speedup > 2.0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Throughput: concurrent region-query engine ===\n";
  return one4all::bench::main_impl();
}
