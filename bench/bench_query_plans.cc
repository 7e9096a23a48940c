// Plan shapes of the composable query API (QuerySpec -> QueryPlanner ->
// QueryExecutor) against the equivalent loops over point queries:
//
//   1. time-range amortization: one TimeRange spec resolves a region once
//      and gathers N timesteps, vs N per-timestep point specs that each
//      pay decomposition + index retrieval. Acceptance (ISSUE 4): >= 2x
//      faster for a 16-step range.
//   2. multi-region grouping: duplicate-heavy region sets share one
//      resolve-cache probe per distinct region.
//   3. top-k ranking latency on top of a grouped gather.
//   4. plan cost (report only): median QueryPlanner::Plan time for a
//      dashboard-sized TopK spec (Task-2-scale Voronoi zones tiling the
//      128x128 raster, ~600 regions) and a 64-zone MultiRegion panel.
//
// Emits BENCH_query_plans.json (override with O4A_BENCH_JSON, empty
// disables). Env knobs: O4A_BENCH_RANGE_STEPS (default 16),
// O4A_BENCH_STRICT (default 1: exit nonzero when a shape check misses).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "core/stopwatch.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"

namespace one4all {
namespace bench {
namespace {

struct PlanBenchResult {
  int64_t num_regions = 0;
  int64_t range_steps = 0;
  double point_loop_seconds = 0.0;
  double range_seconds = 0.0;
  double range_speedup = 0.0;
  double multi_micros = 0.0;
  int64_t multi_probes = 0;
  int64_t multi_distinct = 0;
  double topk_micros = 0.0;
  int64_t plan_board_regions = 0;
  double plan_board_micros = 0.0;
  int64_t plan_panel_regions = 0;
  double plan_panel_micros = 0.0;
};

// Median of `reps` QueryPlanner::Plan calls on copies of `spec`, read
// from the plan's own timer: validation + fingerprint + dedup, without
// the copy-in of the spec's masks.
double MedianPlanMicros(const QueryPlanner& planner, const QuerySpec& spec,
                        int reps) {
  std::vector<double> micros;
  micros.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    auto plan = planner.Plan(spec);
    O4A_CHECK(plan.ok()) << plan.status().ToString();
    micros.push_back(plan->plan_micros);
  }
  std::sort(micros.begin(), micros.end());
  return micros[micros.size() / 2];
}

void WriteJson(const std::string& path, const PlanBenchResult& r) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"query_plans\",\n";
  js << "  \"num_regions\": " << r.num_regions << ",\n";
  js << "  \"range_steps\": " << r.range_steps << ",\n";
  js << "  \"point_loop_seconds\": "
     << TablePrinter::Num(r.point_loop_seconds, 4) << ",\n";
  js << "  \"range_seconds\": " << TablePrinter::Num(r.range_seconds, 4)
     << ",\n";
  js << "  \"range_speedup\": " << TablePrinter::Num(r.range_speedup, 2)
     << ",\n";
  js << "  \"multi_micros\": " << TablePrinter::Num(r.multi_micros, 1)
     << ",\n";
  js << "  \"multi_probes\": " << r.multi_probes << ",\n";
  js << "  \"multi_distinct\": " << r.multi_distinct << ",\n";
  js << "  \"topk_micros\": " << TablePrinter::Num(r.topk_micros, 1)
     << ",\n";
  js << "  \"plan_board_regions\": " << r.plan_board_regions << ",\n";
  js << "  \"plan_board_micros\": "
     << TablePrinter::Num(r.plan_board_micros, 1) << ",\n";
  js << "  \"plan_panel_regions\": " << r.plan_panel_regions << ",\n";
  js << "  \"plan_panel_micros\": "
     << TablePrinter::Num(r.plan_panel_micros, 1) << ",\n";
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
  const int64_t range_steps =
      std::max<int64_t>(2, EnvInt("O4A_BENCH_RANGE_STEPS", 16));

  const STDataset dataset = MakeBenchDataset(DatasetKind::kTaxi, config);
  HistoryMeanPredictor hm;  // plan timing is model-independent
  auto pipeline = MauPipeline::Build(&hm, dataset, SearchOptions{});
  const RegionQueryServer& server = pipeline->server();
  QueryPlanner planner(&dataset.hierarchy());
  QueryExecutor executor(&server);

  RegionGeneratorOptions region_options;
  region_options.style = RegionStyle::kVoronoi;
  region_options.mean_cells = 12.0;
  region_options.seed = 17;
  const auto regions =
      GenerateRegions(dataset.hierarchy().atomic_height(),
                      dataset.hierarchy().atomic_width(), region_options);
  O4A_CHECK(!regions.empty());

  const auto& slots = dataset.test_indices();
  O4A_CHECK(static_cast<int64_t>(slots.size()) >= range_steps)
      << "test window shorter than the requested range";
  const int64_t t0 = slots.front();
  const int64_t t1 = t0 + range_steps - 1;

  PlanBenchResult result;
  result.num_regions = static_cast<int64_t>(regions.size());
  result.range_steps = range_steps;

  auto execute = [&](const QuerySpec& spec,
                     ResolvedQueryCache* cache) -> QueryResult {
    auto plan = planner.Plan(spec);
    O4A_CHECK(plan.ok()) << plan.status().ToString();
    QueryExecutorOptions options;
    options.cache = cache;
    return executor.Execute(*plan, options);
  };

  // -- 1. Time-range amortization ----------------------------------------
  double point_checksum = 0.0;
  {
    Stopwatch timer;
    for (const GridMask& region : regions) {
      for (int64_t t = t0; t <= t1; ++t) {
        const QueryResult r =
            execute(QuerySpec::PointInTime(region, t), nullptr);
        O4A_CHECK(r.rows[0].ok()) << r.rows[0].status().ToString();
        point_checksum += r.rows[0].ValueOrDie().value;
      }
    }
    result.point_loop_seconds = timer.ElapsedSeconds();
  }
  double range_checksum = 0.0;
  {
    Stopwatch timer;
    for (const GridMask& region : regions) {
      const QueryResult r =
          execute(QuerySpec::TimeRange(region, t0, t1), nullptr);
      O4A_CHECK(r.rows[0].ok()) << r.rows[0].status().ToString();
      range_checksum += r.rows[0].ValueOrDie().value;
    }
    result.range_seconds = timer.ElapsedSeconds();
  }
  O4A_CHECK(std::abs(range_checksum - point_checksum) <
            1e-6 * (1.0 + std::abs(point_checksum)))
      << "range aggregation drifted from the point-query loop";
  result.range_speedup = result.point_loop_seconds / result.range_seconds;

  // -- 2. Multi-region grouping: dedup'd resolve-cache probes ------------
  {
    // Duplicate-heavy group: every region twice. Warm once, reset the
    // cache stats (warmup isolation), then measure the steady state.
    std::vector<GridMask> group;
    group.reserve(regions.size() * 2);
    for (const GridMask& region : regions) group.push_back(region);
    for (const GridMask& region : regions) group.push_back(region);
    ResolvedQueryCache cache;
    const QuerySpec spec = QuerySpec::MultiRegion(group, t1);
    (void)execute(spec, &cache);  // warmup fills the cache
    cache.ResetStats();
    Stopwatch timer;
    const QueryResult r = execute(spec, &cache);
    result.multi_micros = timer.ElapsedMicros();
    for (const auto& row : r.rows) {
      O4A_CHECK(row.ok()) << row.status().ToString();
    }
    result.multi_probes = r.cache_hits + r.cache_misses;
    result.multi_distinct = static_cast<int64_t>(regions.size());
    O4A_CHECK_EQ(result.multi_probes, result.multi_distinct)
        << "grouped query should probe once per distinct region";
    O4A_CHECK_EQ(cache.Stats().misses, 0)
        << "steady-state grouped probes should all hit";
  }

  // -- 3. Top-k ranking ---------------------------------------------------
  {
    const QuerySpec spec = QuerySpec::TopK(regions, t1, 5);
    Stopwatch timer;
    const QueryResult r = execute(spec, nullptr);
    result.topk_micros = timer.ElapsedMicros();
    O4A_CHECK(!r.top_k.empty());
    // The winner really is the argmax of the grouped values.
    double best = -1e300;
    int best_index = -1;
    for (size_t i = 0; i < r.rows.size(); ++i) {
      O4A_CHECK(r.rows[i].ok());
      if (r.rows[i].ValueOrDie().value > best) {
        best = r.rows[i].ValueOrDie().value;
        best_index = static_cast<int>(i);
      }
    }
    O4A_CHECK_EQ(r.top_k[0], best_index);
  }

  // -- 4. Plan cost on a dashboard board and panel (report only) --------
  {
    const Hierarchy board_hierarchy = Hierarchy::Uniform(128, 128, 2, 32);
    RegionGeneratorOptions board_options;
    board_options.style = RegionStyle::kVoronoi;
    board_options.mean_cells = 27.0;
    board_options.seed = 102;
    const std::vector<GridMask> zones =
        GenerateRegions(128, 128, board_options);
    O4A_CHECK(zones.size() >= 64);
    const QueryPlanner board_planner(&board_hierarchy);
    const int64_t t = 0;  // planning never reads frames
    result.plan_board_regions = static_cast<int64_t>(zones.size());
    result.plan_board_micros = MedianPlanMicros(
        board_planner, QuerySpec::TopK(zones, t, 10), 200);
    std::vector<GridMask> panel;
    for (size_t i = 0; i < 64; ++i) {
      panel.push_back(zones[(i * 37) % zones.size()]);
    }
    result.plan_panel_regions = static_cast<int64_t>(panel.size());
    result.plan_panel_micros = MedianPlanMicros(
        board_planner, QuerySpec::MultiRegion(panel, t), 200);
  }

  TablePrinter table("Query-plan shapes (" +
                     std::to_string(result.num_regions) + " regions, " +
                     std::to_string(range_steps) + "-step range)");
  table.SetHeader({"Shape", "time", "note"});
  table.AddRow({"per-timestep point loop",
                TablePrinter::Num(result.point_loop_seconds * 1e3, 1) +
                    " ms",
                std::to_string(result.num_regions * range_steps) +
                    " point specs"});
  table.AddRow({"TimeRange spec",
                TablePrinter::Num(result.range_seconds * 1e3, 1) + " ms",
                TablePrinter::Num(result.range_speedup, 2) +
                    "x (one resolution per region)"});
  table.AddRow({"MultiRegion spec (warm)",
                TablePrinter::Num(result.multi_micros / 1e3, 2) + " ms",
                std::to_string(result.multi_probes) + " probes for " +
                    std::to_string(result.multi_distinct * 2) + " rows"});
  table.AddRow({"TopK spec",
                TablePrinter::Num(result.topk_micros / 1e3, 2) + " ms",
                "k=5 rank stage"});
  table.AddRow({"Plan, TopK board",
                TablePrinter::Num(result.plan_board_micros, 1) + " us",
                std::to_string(result.plan_board_regions) +
                    " zones on 128x128, median of 200"});
  table.AddRow({"Plan, MultiRegion panel",
                TablePrinter::Num(result.plan_panel_micros, 1) + " us",
                std::to_string(result.plan_panel_regions) +
                    " zones on 128x128, median of 200"});
  table.Print(std::cout);

  const char* json_env = std::getenv("O4A_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_query_plans.json";
  if (!json_path.empty()) WriteJson(json_path, result);

  const bool range_ok = result.range_speedup >= 2.0;
  PrintShapeCheck(
      "a 16-step TimeRange spec amortizes resolution (>= 2x the "
      "per-timestep point-query loop)",
      range_ok);

  const char* strict_env = std::getenv("O4A_BENCH_STRICT");
  const bool strict = strict_env == nullptr || std::atoi(strict_env) != 0;
  return (range_ok || !strict) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Query plans: composable spec shapes vs point loops "
               "===\n";
  return one4all::bench::main_impl();
}
