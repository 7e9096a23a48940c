// Tests for the composable query API: QuerySpec validation, planner
// compilation (dedup, row/timestep layout), executor parity with the
// sequential Resolve + EvaluateTerms loop (bit-exact), time-range
// aggregation, grouped cache probes, top-k ranking, per-row failure
// isolation, and the ServingRuntime::ExecuteSpec admission/telemetry
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/task_eval.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "serve/serving_runtime.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;
using testing::TinyDataset;

struct SpecFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  explicit SpecFixture(std::vector<double> noise = {1.5, 0.7, 0.2},
                       uint64_t seed = 91)
      : ds(TinyDataset(seed)) {
    OraclePredictor oracle(std::move(noise), seed + 1);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  const RegionQueryServer& server() const { return pipeline->server(); }
  QueryPlanner planner() const { return QueryPlanner(&ds.hierarchy()); }
  QueryExecutor executor() const { return QueryExecutor(&server()); }

  std::vector<GridMask> SomeRegions(int n, uint64_t seed = 700) const {
    std::vector<GridMask> regions;
    for (int i = 0; regions.size() < static_cast<size_t>(n); ++i) {
      const GridMask region =
          RandomMask(8, 8, seed + static_cast<uint64_t>(i), 350);
      if (!region.Empty()) regions.push_back(region);
    }
    return regions;
  }
};

// ---------------------------------------------------------------------------
// QuerySpec validation

TEST(QuerySpecTest, ValidationCatchesStructuralErrors) {
  SpecFixture fx;
  const QueryPlanner planner = fx.planner();

  QuerySpec no_regions;
  EXPECT_EQ(planner.Plan(no_regions).status().code(),
            StatusCode::kInvalidArgument);

  GridMask wrong_size(4, 4);
  wrong_size.Set(0, 0, true);
  EXPECT_EQ(planner.Plan(QuerySpec::PointInTime(wrong_size, 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(planner.Plan(QuerySpec::PointInTime(GridMask(8, 8), 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // empty mask

  GridMask ok(8, 8);
  ok.FillRect(0, 0, 2, 2);
  EXPECT_EQ(
      planner.Plan(QuerySpec::TimeRange(ok, 10, 5)).status().code(),
      StatusCode::kInvalidArgument);  // reversed range

  EXPECT_EQ(planner.Plan(QuerySpec::TopK({ok}, 0, 0)).status().code(),
            StatusCode::kInvalidArgument);  // k < 1

  // One malformed region fails the whole grouped spec.
  EXPECT_EQ(planner.Plan(QuerySpec::MultiRegion({ok, wrong_size, ok}, 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(planner.Plan(QuerySpec::PointInTime(ok, 0)).ok());
}

TEST(QuerySpecTest, ToStringNamesTheShape) {
  GridMask region(8, 8);
  region.FillRect(0, 0, 2, 2);
  const QuerySpec spec = QuerySpec::TimeRange(
      region, 3, 7, TimeAggregation::kMax, QueryStrategy::kUnion);
  const std::string text = spec.ToString();
  EXPECT_NE(text.find("TimeRange"), std::string::npos);
  EXPECT_NE(text.find("t=3..7"), std::string::npos);
  EXPECT_NE(text.find("max"), std::string::npos);
  EXPECT_NE(text.find("Union"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Planner

TEST(QueryPlannerTest, DedupsIdenticalRegionsIntoOneSlot) {
  SpecFixture fx;
  auto regions = fx.SomeRegions(3);
  std::vector<GridMask> with_duplicates = {regions[0], regions[1],
                                           regions[0], regions[2],
                                           regions[1], regions[0]};
  auto plan = fx.planner().Plan(
      QuerySpec::MultiRegion(with_duplicates, fx.ds.test_indices()[0]));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->slot_regions.size(), 3u);
  ASSERT_EQ(plan->rows.size(), 6u);
  // Duplicate rows share their original's slot.
  EXPECT_EQ(plan->rows[0].region_slot, plan->rows[2].region_slot);
  EXPECT_EQ(plan->rows[0].region_slot, plan->rows[5].region_slot);
  EXPECT_EQ(plan->rows[1].region_slot, plan->rows[4].region_slot);
  EXPECT_NE(plan->rows[0].region_slot, plan->rows[1].region_slot);
  EXPECT_EQ(plan->num_point_queries(), 6);
  EXPECT_NE(plan->Describe().find("3 distinct regions"),
            std::string::npos);
}

// Reference dedup: first-occurrence slots through a node map.
void ExpectDedupMatchesReference(const QueryPlan& plan,
                                 const std::vector<GridMask>& regions) {
  std::unordered_map<RegionFingerprint, int, RegionFingerprintHash> slot_of;
  std::vector<int> want_slot_regions;
  std::vector<RegionFingerprint> want_fingerprints;
  std::vector<int> want_row_slot;
  for (size_t i = 0; i < regions.size(); ++i) {
    const RegionFingerprint fp =
        FingerprintRegion(regions[i], plan.spec.strategy);
    const auto inserted =
        slot_of.emplace(fp, static_cast<int>(want_slot_regions.size()));
    if (inserted.second) {
      want_slot_regions.push_back(static_cast<int>(i));
      want_fingerprints.push_back(fp);
    }
    want_row_slot.push_back(inserted.first->second);
  }
  EXPECT_EQ(plan.slot_regions, want_slot_regions);
  ASSERT_EQ(plan.slot_fingerprints.size(), want_fingerprints.size());
  for (size_t s = 0; s < want_fingerprints.size(); ++s) {
    EXPECT_TRUE(plan.slot_fingerprints[s] == want_fingerprints[s]) << s;
  }
  ASSERT_EQ(plan.rows.size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(plan.rows[i].region_slot, want_row_slot[i]) << "row " << i;
  }
}

TEST(QueryPlannerTest, DedupMatchesNodeMapReference) {
  // Seeded duplicate-heavy specs of 1..700 regions drawn from small
  // pools of distinct masks: the planner's slots, fingerprints and row
  // slots equal a first-occurrence node-map dedup.
  const Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 8);
  const QueryPlanner planner(&hierarchy);
  Rng rng(20);
  for (const size_t n : {1, 2, 3, 7, 16, 63, 64, 65, 255, 333, 607, 700}) {
    const size_t pool_size = std::max<size_t>(1, n / 3);
    std::vector<GridMask> pool;
    for (uint64_t seed = 0; pool.size() < pool_size; ++seed) {
      GridMask m = RandomMask(16, 16, n * 1000 + seed, 20);
      if (!m.Empty()) pool.push_back(std::move(m));
    }
    std::vector<GridMask> regions;
    for (size_t i = 0; i < n; ++i) {
      regions.push_back(pool[rng.UniformInt(pool.size())]);
    }
    auto plan = planner.Plan(QuerySpec::TopK(regions, 0, 5));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectDedupMatchesReference(*plan, regions);
  }
}

TEST(QueryPlannerTest, DedupProbesPastSharedHomeSlots) {
  // Distinct masks whose fingerprints share their low 6 bits: the
  // planner homes a fingerprint at fp.lo & (capacity - 1), and a spec of
  // at most 32 rows has a table of at most 64 slots, so every one of
  // them lands on the same home slot and must be told apart by probing.
  const Hierarchy hierarchy = Hierarchy::Uniform(16, 16, 2, 8);
  const QueryPlanner planner(&hierarchy);
  std::unordered_map<uint64_t, std::vector<GridMask>> by_low_bits;
  std::vector<GridMask>* shared = nullptr;
  for (uint64_t seed = 1; shared == nullptr; ++seed) {
    GridMask m = RandomMask(16, 16, seed, 300);
    if (m.Empty()) continue;
    const uint64_t low =
        FingerprintRegion(m, QueryStrategy::kUnionSubtraction).lo & 63;
    std::vector<GridMask>& bucket = by_low_bits[low];
    bucket.push_back(std::move(m));
    if (bucket.size() == 8) shared = &bucket;
  }
  // Eight distinct masks, each three times, interleaved: 24 rows.
  std::vector<GridMask> regions;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < shared->size(); ++i) {
      regions.push_back((*shared)[(i + static_cast<size_t>(round)) % 8]);
    }
  }
  auto plan = planner.Plan(QuerySpec::MultiRegion(regions, 0));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->slot_regions.size(), 8u);
  ExpectDedupMatchesReference(*plan, regions);
}

TEST(QueryPlannerTest, RangePlanGathersEveryTimestep) {
  SpecFixture fx;
  GridMask region(8, 8);
  region.FillRect(1, 1, 5, 5);
  auto plan = fx.planner().Plan(
      QuerySpec::TimeRange(region, 80, 87, TimeAggregation::kSum));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->rows.size(), 1u);
  EXPECT_EQ(plan->rows[0].t0, 80);
  EXPECT_EQ(plan->rows[0].t1, 87);
  EXPECT_EQ(plan->rows[0].num_steps(), 8);
  EXPECT_EQ(plan->num_point_queries(), 8);
}

// ---------------------------------------------------------------------------
// Executor parity with the sequential term loop (the acceptance regression)

TEST(QueryExecutorTest, PointSpecBitExactWithTermLoop) {
  SpecFixture fx;
  const auto regions = fx.SomeRegions(6);
  for (QueryStrategy strategy :
       {QueryStrategy::kDirect, QueryStrategy::kUnion,
        QueryStrategy::kUnionSubtraction}) {
    for (const GridMask& region : regions) {
      auto resolved = fx.server().Resolve(region, strategy);
      ASSERT_TRUE(resolved.ok());
      for (int64_t t : fx.pipeline->test_timesteps()) {
        auto plan =
            fx.planner().Plan(QuerySpec::PointInTime(region, t, strategy));
        ASSERT_TRUE(plan.ok());
        const QueryResult result = fx.executor().Execute(*plan);
        ASSERT_EQ(result.rows.size(), 1u);
        ASSERT_TRUE(result.rows[0].ok())
            << result.rows[0].status().ToString();
        // Bit-exact: the executor gathers the same floats in the same
        // order as the one-term-at-a-time loop.
        EXPECT_EQ(result.rows[0]->value,
                  fx.server().EvaluateTerms(resolved->terms, t))
            << QueryStrategyName(strategy) << " t=" << t;
        EXPECT_EQ(result.rows[0]->num_pieces, resolved->num_pieces);
        EXPECT_EQ(result.rows[0]->num_terms,
                  static_cast<int>(resolved->terms.size()));
      }
    }
  }
}

TEST(QueryExecutorTest, LegacyPredictStillMatchesEvaluateTerms) {
  // Predict is now a shim over the planner/executor; pin it to the
  // primitive Resolve + TryEvaluateTerms composition.
  SpecFixture fx;
  const GridMask region = RandomMask(8, 8, 1234, 400);
  const int64_t t = fx.pipeline->test_timesteps()[0];
  auto response =
      fx.server().Predict(region, t, QueryStrategy::kUnionSubtraction);
  ASSERT_TRUE(response.ok());
  auto resolved =
      fx.server().Resolve(region, QueryStrategy::kUnionSubtraction);
  ASSERT_TRUE(resolved.ok());
  auto direct = fx.server().TryEvaluateTerms(resolved->terms, t);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response->value, *direct);
  EXPECT_EQ(response->num_terms,
            static_cast<int>(resolved->terms.size()));
  EXPECT_GE(response->eval_micros, 0.0);
  // The paper's response time still excludes evaluation.
  EXPECT_NEAR(response->response_micros,
              response->decompose_micros + response->index_micros, 1e-9);
}

TEST(QueryExecutorTest, TimeRangeAggregationsMatchPointQueries) {
  SpecFixture fx;
  const GridMask region = RandomMask(8, 8, 77, 400);
  const auto& slots = fx.pipeline->test_timesteps();
  ASSERT_GE(slots.size(), 4u);
  const int64_t t0 = slots.front();
  const int64_t t1 = slots.front() + 3;

  std::vector<double> point_values;
  for (int64_t t = t0; t <= t1; ++t) {
    auto response =
        fx.server().Predict(region, t, QueryStrategy::kUnionSubtraction);
    ASSERT_TRUE(response.ok());
    point_values.push_back(response->value);
  }
  double sum = 0.0, best = point_values[0];
  for (const double v : point_values) {
    sum += v;
    best = std::max(best, v);
  }

  auto run = [&](TimeAggregation agg) {
    QuerySpec spec = QuerySpec::TimeRange(region, t0, t1, agg);
    spec.keep_series = true;
    auto plan = fx.planner().Plan(spec);
    EXPECT_TRUE(plan.ok());
    return fx.executor().Execute(*plan);
  };

  const QueryResult summed = run(TimeAggregation::kSum);
  ASSERT_TRUE(summed.rows[0].ok());
  // Same per-step values folded in the same (ascending t) order.
  EXPECT_EQ(summed.rows[0]->value, sum);
  ASSERT_EQ(summed.rows[0]->series.size(), point_values.size());
  for (size_t i = 0; i < point_values.size(); ++i) {
    EXPECT_EQ(summed.rows[0]->series[i], point_values[i]);
  }

  const QueryResult mean = run(TimeAggregation::kMean);
  ASSERT_TRUE(mean.rows[0].ok());
  EXPECT_DOUBLE_EQ(mean.rows[0]->value,
                   sum / static_cast<double>(point_values.size()));

  const QueryResult peak = run(TimeAggregation::kMax);
  ASSERT_TRUE(peak.rows[0].ok());
  EXPECT_EQ(peak.rows[0]->value, best);
}

TEST(QueryExecutorTest, MultiRegionSharesCacheProbesAcrossDuplicates) {
  SpecFixture fx;
  const auto distinct = fx.SomeRegions(4);
  std::vector<GridMask> group;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const GridMask& region : distinct) group.push_back(region);
  }
  const int64_t t = fx.pipeline->test_timesteps()[0];
  auto plan = fx.planner().Plan(QuerySpec::MultiRegion(group, t));
  ASSERT_TRUE(plan.ok());

  ResolvedQueryCache cache;
  QueryExecutorOptions options;
  options.cache = &cache;
  const QueryResult result = fx.executor().Execute(*plan, options);
  ASSERT_EQ(result.rows.size(), group.size());
  // One probe per *distinct* region, not per row.
  EXPECT_EQ(result.cache_hits + result.cache_misses,
            static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(cache.Stats().misses,
            static_cast<int64_t>(distinct.size()));
  // Every row matches its region's point query, duplicates included.
  for (size_t i = 0; i < group.size(); ++i) {
    ASSERT_TRUE(result.rows[i].ok());
    auto reference =
        fx.server().Predict(group[i], t, QueryStrategy::kUnionSubtraction);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(result.rows[i]->value, reference->value) << "row " << i;
  }

  // A second execution is all hits.
  const QueryResult again = fx.executor().Execute(*plan, options);
  EXPECT_EQ(again.cache_misses, 0);
  EXPECT_EQ(again.cache_hits, static_cast<int64_t>(distinct.size()));
  for (size_t i = 0; i < group.size(); ++i) {
    ASSERT_TRUE(again.rows[i].ok());
    EXPECT_TRUE(again.rows[i]->from_cache);
    EXPECT_EQ(again.rows[i]->value, result.rows[i]->value);
  }
}

TEST(QueryExecutorTest, TopKMatchesBruteForceRanking) {
  SpecFixture fx;
  const auto regions = fx.SomeRegions(8);
  const int64_t t = fx.pipeline->test_timesteps()[0];
  auto plan = fx.planner().Plan(QuerySpec::TopK(regions, t, 3));
  ASSERT_TRUE(plan.ok());
  const QueryResult result = fx.executor().Execute(*plan);
  ASSERT_EQ(result.rows.size(), regions.size());
  ASSERT_EQ(result.top_k.size(), 3u);

  std::vector<int> expected(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    ASSERT_TRUE(result.rows[i].ok());
    expected[i] = static_cast<int>(i);
  }
  std::sort(expected.begin(), expected.end(), [&](int a, int b) {
    const double va = result.rows[static_cast<size_t>(a)].ValueOrDie().value;
    const double vb = result.rows[static_cast<size_t>(b)].ValueOrDie().value;
    if (va != vb) return va > vb;
    return a < b;
  });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.top_k[i], expected[i]) << "rank " << i;
  }
  EXPECT_GE(result.timings.rank_micros, 0.0);

  // k beyond the region count clamps instead of failing.
  auto big = fx.planner().Plan(
      QuerySpec::TopK(regions, t, static_cast<int>(regions.size()) + 10));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(fx.executor().Execute(*big).top_k.size(), regions.size());
}

TEST(QueryExecutorTest, MissingFramesFailPerRowNotPerPlan) {
  SpecFixture fx;
  const auto regions = fx.SomeRegions(3);
  // A range reaching past the synced window: rows fail with NotFound,
  // the plan itself still executes.
  const int64_t last = fx.pipeline->test_timesteps().back();
  QuerySpec spec = QuerySpec::MultiRegion(regions, last);
  spec.time = TimeSelector::Range(last, last + 2);
  auto plan = fx.planner().Plan(spec);
  ASSERT_TRUE(plan.ok());
  const QueryResult result = fx.executor().Execute(*plan);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
  }
  // The point shape at the same last slot still answers.
  auto ok_plan =
      fx.planner().Plan(QuerySpec::PointInTime(regions[0], last));
  ASSERT_TRUE(ok_plan.ok());
  EXPECT_TRUE(fx.executor().Execute(*ok_plan).rows[0].ok());
}

TEST(QueryExecutorTest, StageTimingsArePopulated) {
  SpecFixture fx;
  const auto regions = fx.SomeRegions(5);
  auto plan = fx.planner().Plan(
      QuerySpec::TopK(regions, fx.pipeline->test_timesteps()[0], 2));
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->plan_micros, 0.0);
  const QueryResult result = fx.executor().Execute(*plan);
  EXPECT_EQ(result.kind, QuerySpecKind::kTopK);
  EXPECT_GE(result.timings.resolve_micros, 0.0);
  EXPECT_GE(result.timings.eval_micros, 0.0);
  EXPECT_GT(result.timings.total_micros, 0.0);
  for (const auto& row : result.rows) {
    ASSERT_TRUE(row.ok());
    EXPECT_GE(row->eval_micros, 0.0);
  }
}

// ---------------------------------------------------------------------------
// ServingRuntime::ExecuteSpec

struct RuntimeFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;

  RuntimeFixture() : ds(TinyDataset(63)) {
    OraclePredictor oracle({0.3, 0.1}, 64);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
    for (int i = 0; i < 6; ++i) {
      const GridMask region = RandomMask(8, 8, 900 + i, 350);
      if (!region.Empty()) regions.push_back(region);
    }
  }

  ServingRuntimeOptions RuntimeOptions() const {
    ServingRuntimeOptions options;
    options.ingest.start_t = ds.test_indices().front();
    options.ingest.num_timesteps = 6;
    return options;
  }
};

TEST(ServingRuntimeSpecTest, ExecutesEveryShapeAndCountsKinds) {
  RuntimeFixture fx;
  ServingRuntime runtime(&fx.ds.hierarchy(), &fx.pipeline->index(), &fx.ds,
                         MakeGroundTruthInference(&fx.ds),
                         fx.RuntimeOptions());
  runtime.Start();
  runtime.ingestor().WaitUntilDone();
  ASSERT_TRUE(runtime.ingestor().status().ok());
  const int64_t start = fx.RuntimeOptions().ingest.start_t;

  auto point = runtime.ExecuteSpec(
      QuerySpec::PointInTime(fx.regions[0], start));
  ASSERT_TRUE(point.ok());
  ASSERT_TRUE(point->rows[0].ok())
      << point->rows[0].status().ToString();

  auto range = runtime.ExecuteSpec(QuerySpec::TimeRange(
      fx.regions[0], start, start + 3, TimeAggregation::kMean));
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(range->rows[0].ok());

  // The grouped shape answers its first region exactly as the point
  // shape does.
  auto multi =
      runtime.ExecuteSpec(QuerySpec::MultiRegion(fx.regions, start));
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->rows.size(), fx.regions.size());
  ASSERT_TRUE(multi->rows[0].ok());
  EXPECT_EQ(multi->rows[0]->value, point->rows[0]->value);

  auto ranked =
      runtime.ExecuteSpec(QuerySpec::TopK(fx.regions, start + 2, 2));
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->top_k.size(), 2u);

  const auto snapshot = runtime.Telemetry();
  auto kind_count = [&](QuerySpecKind kind) {
    return snapshot.specs_by_kind[static_cast<size_t>(kind)];
  };
  EXPECT_EQ(kind_count(QuerySpecKind::kPointInTime), 1);
  EXPECT_EQ(kind_count(QuerySpecKind::kTimeRange), 1);
  EXPECT_EQ(kind_count(QuerySpecKind::kMultiRegion), 1);
  EXPECT_EQ(kind_count(QuerySpecKind::kTopK), 1);
  // served = 1 point + 1 range + 6 multi + 6 topk.
  EXPECT_EQ(snapshot.queries_served,
            2 + 2 * static_cast<int64_t>(fx.regions.size()));
  EXPECT_GT(snapshot.query_success_rate(), 0.99);
}

TEST(ServingRuntimeSpecTest, SpecAdmissionCostIsGatherCount) {
  RuntimeFixture fx;
  ServingRuntimeOptions options = fx.RuntimeOptions();
  options.max_inflight_queries = 8;
  ServingRuntime runtime(&fx.ds.hierarchy(), &fx.pipeline->index(), &fx.ds,
                         MakeGroundTruthInference(&fx.ds), options);
  const int64_t start = options.ingest.start_t;

  // 6 regions x 3 steps = 18 gathers > budget of 8: rejected whole.
  QuerySpec oversized = QuerySpec::MultiRegion(fx.regions, start);
  oversized.time = TimeSelector::Range(start, start + 2);
  auto rejected = runtime.ExecuteSpec(oversized);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // A 4-step single-region range fits.
  auto admitted = runtime.ExecuteSpec(
      QuerySpec::TimeRange(fx.regions[0], start, start + 3));
  EXPECT_TRUE(admitted.ok());

  // An invalid spec is InvalidArgument, not overload, and consumes no
  // admission budget.
  auto invalid = runtime.ExecuteSpec(QuerySpec::TopK(fx.regions, start, 0));
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);

  // An absurdly long range is bounced by admission *before* planning —
  // the spec's cost is computed from the selector, so no per-step
  // memory is ever materialized for it.
  auto absurd = runtime.ExecuteSpec(QuerySpec::TimeRange(
      fx.regions[0], 0, int64_t{1} << 50));
  EXPECT_EQ(absurd.status().code(), StatusCode::kResourceExhausted);

  const auto snapshot = runtime.Telemetry();
  EXPECT_EQ(snapshot.batches_rejected, 2);
  // Rejection counters use result-row units (same unit as served/
  // failed), even though the admission *budget* is gather slots: the
  // oversized group rejected its |regions| rows, the absurd range one.
  EXPECT_EQ(snapshot.queries_rejected,
            static_cast<int64_t>(fx.regions.size()) + 1);
  EXPECT_EQ(snapshot.batches_admitted, 1);
}

TEST(ServingTelemetryTest, ResetZeroesCountersAndRatesStayGuarded) {
  ServingTelemetry telemetry;
  const auto idle = telemetry.Snapshot();
  // Guarded on an idle runtime: no NaNs out of zero denominators.
  EXPECT_EQ(idle.query_success_rate(), 0.0);
  EXPECT_EQ(idle.query_mean_micros, 0.0);
  EXPECT_EQ(idle.query_p99_micros, 0.0);

  telemetry.queries_served.fetch_add(5);
  telemetry.queries_failed.fetch_add(1);
  telemetry.CountSpec(QuerySpecKind::kTopK);
  telemetry.query_latency.Record(120.0);
  const auto busy = telemetry.Snapshot();
  EXPECT_NEAR(busy.query_success_rate(), 5.0 / 6.0, 1e-12);
  EXPECT_EQ(busy.specs_by_kind[static_cast<size_t>(QuerySpecKind::kTopK)],
            1);
  EXPECT_GT(busy.query_p50_micros, 0.0);

  telemetry.Reset();
  const auto reset = telemetry.Snapshot();
  EXPECT_EQ(reset.queries_served, 0);
  EXPECT_EQ(reset.queries_failed, 0);
  EXPECT_EQ(
      reset.specs_by_kind[static_cast<size_t>(QuerySpecKind::kTopK)], 0);
  EXPECT_EQ(reset.query_p50_micros, 0.0);
  EXPECT_EQ(reset.query_success_rate(), 0.0);
}

}  // namespace
}  // namespace one4all
