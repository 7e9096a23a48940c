// Tests for the grouped region-query path: MultiRegion specs reusing
// the resolve cache across timesteps, the sharded LRU
// ResolvedQueryCache, and the ThreadPool substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "eval/task_eval.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "test_util.h"

namespace one4all {
namespace {

using testing::OraclePredictor;
using testing::RandomMask;
using testing::TinyDataset;

constexpr QueryStrategy kAllStrategies[] = {
    QueryStrategy::kDirect, QueryStrategy::kUnion,
    QueryStrategy::kUnionSubtraction};

struct BatchFixture {
  STDataset ds;
  std::unique_ptr<MauPipeline> pipeline;

  explicit BatchFixture(std::vector<double> noise = {1.5, 0.7, 0.2},
                        uint64_t seed = 91)
      : ds(TinyDataset(seed)) {
    OraclePredictor oracle(std::move(noise), seed + 1);
    pipeline = MauPipeline::Build(&oracle, ds, SearchOptions{});
  }

  /// \brief `num_regions` random masks, empty ones dropped.
  std::vector<GridMask> MakeRegions(int num_regions,
                                    uint64_t seed = 700) const {
    std::vector<GridMask> regions;
    for (int i = 0; i < num_regions; ++i) {
      const GridMask region = RandomMask(8, 8, seed + i, 350);
      if (!region.Empty()) regions.push_back(region);
    }
    return regions;
  }

  /// \brief Plans and runs one MultiRegion spec over `regions` at `t`.
  QueryResult Execute(const std::vector<GridMask>& regions, int64_t t,
                      QueryStrategy strategy,
                      const QueryExecutorOptions& options = {}) const {
    auto plan = QueryPlanner(&ds.hierarchy())
                    .Plan(QuerySpec::MultiRegion(regions, t, strategy));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return QueryExecutor(&pipeline->server())
        .Execute(plan.ValueOrDie(), options);
  }
};

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  pool.ParallelFor(257, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      touched[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleThread) {
  ThreadPool pool(1);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(GroupedQueryTest, CachedSpecsMatchAndHitAcrossTimesteps) {
  BatchFixture fx;
  const auto regions = fx.MakeRegions(5);
  const auto& slots = fx.pipeline->test_timesteps();
  const int64_t num_probes =
      static_cast<int64_t>(regions.size() * slots.size());
  ResolvedQueryCache cache;
  QueryExecutorOptions options;
  options.cache = &cache;
  std::vector<QueryResult> plain, cached;
  for (int64_t t : slots) {
    plain.push_back(
        fx.Execute(regions, t, QueryStrategy::kUnionSubtraction));
    cached.push_back(
        fx.Execute(regions, t, QueryStrategy::kUnionSubtraction, options));
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    for (size_t i = 0; i < regions.size(); ++i) {
      ASSERT_TRUE(cached[s].rows[i].ok());
      EXPECT_EQ(cached[s].rows[i]->value, plain[s].rows[i]->value);
    }
  }
  // Resolution is time-independent: each region resolves once, and every
  // later time slot hits.
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.misses, static_cast<int64_t>(regions.size()));
  EXPECT_EQ(stats.size, static_cast<size_t>(stats.misses));
  EXPECT_EQ(stats.hits + stats.misses, num_probes);

  // A second pass over the same specs is all hits.
  for (size_t s = 0; s < slots.size(); ++s) {
    const QueryResult again = fx.Execute(
        regions, slots[s], QueryStrategy::kUnionSubtraction, options);
    for (size_t i = 0; i < regions.size(); ++i) {
      ASSERT_TRUE(again.rows[i].ok());
      EXPECT_EQ(again.rows[i]->value, plain[s].rows[i]->value);
      EXPECT_TRUE(again.rows[i]->from_cache);
    }
  }
  const auto stats2 = cache.Stats();
  EXPECT_EQ(stats2.misses, stats.misses);
  EXPECT_EQ(stats2.hits, stats.hits + num_probes);
}

TEST(GroupedQueryTest, ResolveCachedReportsCacheHitOutParam) {
  BatchFixture fx;
  const GridMask region = RandomMask(8, 8, 4321, 400);
  ASSERT_FALSE(region.Empty());
  const RegionQueryServer& server = fx.pipeline->server();

  // Without a cache: never a hit, even when primed true.
  bool hit = true;
  auto uncached = server.ResolveCached(
      region, QueryStrategy::kUnionSubtraction, nullptr, &hit);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(hit);

  ResolvedQueryCache cache;
  hit = true;
  auto first = server.ResolveCached(
      region, QueryStrategy::kUnionSubtraction, &cache, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);  // cold cache: a miss

  hit = false;
  auto second = server.ResolveCached(
      region, QueryStrategy::kUnionSubtraction, &cache, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  // The hit returns the same shared resolution, not a re-resolve.
  EXPECT_EQ(second->get(), first->get());

  // A failing resolve reports no hit either.
  hit = true;
  GridMask empty(8, 8);
  auto failed = server.ResolveCached(
      empty, QueryStrategy::kUnionSubtraction, &cache, &hit);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(hit);

  // The out-param is optional.
  auto no_out_param = server.ResolveCached(
      region, QueryStrategy::kUnionSubtraction, &cache);
  ASSERT_TRUE(no_out_param.ok());
  EXPECT_EQ(no_out_param->get(), first->get());
}

TEST(GroupedQueryTest, CacheKeysDistinguishStrategiesForSameMask) {
  BatchFixture fx;
  // A multi-cell region so Direct / Union / Union&Subtraction genuinely
  // resolve to different term lists.
  GridMask region(8, 8);
  region.FillRect(0, 0, 3, 3);
  region.Set(5, 5, true);
  ResolvedQueryCache cache;
  const RegionQueryServer& server = fx.pipeline->server();

  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = true;
    auto resolved = server.ResolveCached(region, strategy, &cache, &hit);
    ASSERT_TRUE(resolved.ok());
    // No cross-strategy pollution: each first lookup is a miss...
    EXPECT_FALSE(hit) << QueryStrategyName(strategy);
  }
  EXPECT_EQ(cache.Size(), 3u);
  // ...and each strategy's entry replays its own resolution.
  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = false;
    auto cached = server.ResolveCached(region, strategy, &cache, &hit);
    ASSERT_TRUE(cached.ok());
    EXPECT_TRUE(hit);
    auto fresh = server.Resolve(region, strategy);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ((*cached)->terms.size(), fresh->terms.size())
        << QueryStrategyName(strategy);
    for (size_t k = 0; k < fresh->terms.size(); ++k) {
      EXPECT_EQ((*cached)->terms[k], fresh->terms[k]);
    }
  }
}

TEST(ResolvedQueryCacheTest, ResetStatsKeepsEntries) {
  ResolvedQueryCache cache;
  const RegionFingerprint key{7, 70};
  cache.Put(key, std::make_shared<const ResolvedQuery>());
  ASSERT_NE(cache.Get(key), nullptr);
  (void)cache.Get(RegionFingerprint{8, 80});  // a miss
  auto before = cache.Stats();
  EXPECT_EQ(before.hits, 1);
  EXPECT_EQ(before.misses, 1);
  EXPECT_GT(before.hit_rate(), 0.0);

  cache.ResetStats();
  auto after = cache.Stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.invalidations, 0);
  // Guarded: zero lookups reads as 0.0, not NaN.
  EXPECT_EQ(after.hit_rate(), 0.0);
  // Warm entries survive — that is the point of warmup isolation.
  EXPECT_EQ(after.size, 1u);
  EXPECT_NE(cache.Get(key), nullptr);
  EXPECT_EQ(cache.Stats().hits, 1);
}

TEST(GroupedQueryTest, StrategiesDoNotShareCacheEntries) {
  BatchFixture fx;
  const GridMask region = RandomMask(8, 8, 1234, 400);
  ASSERT_FALSE(region.Empty());
  ResolvedQueryCache cache;
  const RegionQueryServer& server = fx.pipeline->server();
  for (QueryStrategy strategy : kAllStrategies) {
    bool hit = true;
    auto resolved = server.ResolveCached(region, strategy, &cache, &hit);
    ASSERT_TRUE(resolved.ok());
    EXPECT_FALSE(hit) << QueryStrategyName(strategy);
  }
  EXPECT_EQ(cache.Size(), 3u);
}

TEST(ResolvedQueryCacheTest, EvictsLeastRecentlyUsed) {
  ResolvedQueryCacheOptions options;
  options.capacity = 2;
  options.num_shards = 1;  // deterministic eviction order
  ResolvedQueryCache cache(options);

  auto entry = [](int pieces) {
    auto rq = std::make_shared<ResolvedQuery>();
    rq->num_pieces = pieces;
    return std::shared_ptr<const ResolvedQuery>(std::move(rq));
  };
  const RegionFingerprint a{1, 10}, b{2, 20}, c{3, 30};
  cache.Put(a, entry(1));
  cache.Put(b, entry(2));
  ASSERT_NE(cache.Get(a), nullptr);  // refresh a; b is now LRU
  cache.Put(c, entry(3));            // evicts b
  EXPECT_EQ(cache.Get(b), nullptr);
  ASSERT_NE(cache.Get(a), nullptr);
  ASSERT_NE(cache.Get(c), nullptr);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResolvedQueryCacheTest, FingerprintSeparatesMasksAndStrategies) {
  const GridMask m1 = RandomMask(8, 8, 5, 400);
  GridMask m2 = m1;
  m2.Set(7, 7, !m2.at(7, 7));
  const auto fp1 = FingerprintRegion(m1, QueryStrategy::kUnion);
  const auto fp2 = FingerprintRegion(m2, QueryStrategy::kUnion);
  const auto fp3 = FingerprintRegion(m1, QueryStrategy::kDirect);
  EXPECT_FALSE(fp1 == fp2);
  EXPECT_FALSE(fp1 == fp3);
  EXPECT_TRUE(fp1 == FingerprintRegion(m1, QueryStrategy::kUnion));
}

TEST(ResolvedQueryCacheTest, FingerprintKeysWordIndexAndExtents) {
  // The fingerprint skips zero words, so it must mix in each set word's
  // index: one word value at two word indices is two different regions.
  // Extents are keyed too, so all-zero masks of different shapes differ.
  GridMask at_word1(4, 128), at_word5(4, 128);  // 8 words, 2 per row
  for (const int64_t c : {0, 3, 17, 63}) {
    at_word1.Set(0, 64 + c, true);
    at_word5.Set(2, 64 + c, true);
  }
  ASSERT_EQ(at_word1.words()[1], at_word5.words()[5]);
  EXPECT_FALSE(FingerprintRegion(at_word1, QueryStrategy::kUnion) ==
               FingerprintRegion(at_word5, QueryStrategy::kUnion));
  EXPECT_FALSE(FingerprintRegion(GridMask(4, 128), QueryStrategy::kUnion) ==
               FingerprintRegion(GridMask(8, 64), QueryStrategy::kUnion));
}

TEST(ResolvedQueryCacheTest, ConcurrentGetPutIsSafe) {
  ResolvedQueryCacheOptions options;
  options.capacity = 64;
  options.num_shards = 4;
  ResolvedQueryCache cache(options);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&cache, w] {
      for (int i = 0; i < 500; ++i) {
        RegionFingerprint key{static_cast<uint64_t>(i % 100),
                              static_cast<uint64_t>((i + w) % 50)};
        if (auto hit = cache.Get(key)) {
          EXPECT_GE(hit->num_pieces, 0);
        } else {
          auto rq = std::make_shared<ResolvedQuery>();
          rq->num_pieces = i;
          cache.Put(key, std::move(rq));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.Size(), 64u);
}

}  // namespace
}  // namespace one4all
