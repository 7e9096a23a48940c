// Tests for the declarative scenario harness (src/scenario): the
// line-precise JSON reader, schema validation of scenario specs, the
// workload samplers, engine determinism (same spec + seed => byte-equal
// canonical verdicts), and the committed golden matrix under scenarios/.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "scenario/scenario_engine.h"
#include "scenario/scenario_json.h"
#include "scenario/scenario_spec.h"
#include "scenario/workload.h"

namespace one4all {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(ScenarioJsonTest, ParsesNestedStructureWithPositions) {
  auto doc = ParseJson(R"({
  "name": "demo",
  "pi": 3.5,
  "count": 42,
  "flags": [true, false, null],
  "nested": {"text": "a\nbA"}
})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members.size(), 5u);
  // Member order is file order.
  EXPECT_EQ(doc->members[0].first, "name");
  EXPECT_EQ(doc->members[4].first, "nested");

  const JsonValue* pi = doc->Find("pi");
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->is_number());
  EXPECT_FALSE(pi->number_is_integer);
  EXPECT_DOUBLE_EQ(pi->number, 3.5);

  const JsonValue* count = doc->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_TRUE(count->number_is_integer);
  EXPECT_EQ(count->integer, 42);
  EXPECT_EQ(count->line, 4);  // values remember where they started

  const JsonValue* flags = doc->Find("flags");
  ASSERT_NE(flags, nullptr);
  ASSERT_EQ(flags->items.size(), 3u);
  EXPECT_TRUE(flags->items[0].is_bool());
  EXPECT_TRUE(flags->items[2].is_null());

  const JsonValue* text = doc->Find("nested")->Find("text");
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(text->string_value, "a\nbA");
}

TEST(ScenarioJsonTest, RejectsDuplicateKeysAtTheirLine) {
  auto doc = ParseJson("{\n  \"a\": 1,\n  \"a\": 2\n}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().ToString().find("duplicate"), std::string::npos)
      << doc.status().ToString();
  EXPECT_NE(doc.status().ToString().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(ScenarioJsonTest, RejectsTrailingGarbage) {
  auto doc = ParseJson("{\"a\": 1} extra");
  ASSERT_FALSE(doc.ok());
}

TEST(ScenarioJsonTest, ErrorsCarryLineAndColumn) {
  auto doc = ParseJson("{\n  \"a\": [1, 2,\n}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().ToString().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

// ---------------------------------------------------------------------------
// Scenario spec schema

TEST(ScenarioSpecTest, MinimalSpecGetsDefaults) {
  auto spec = ParseScenarioSpec(R"({"name": "minimal"})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "minimal");
  EXPECT_EQ(spec->grid.size, 16);
  EXPECT_EQ(spec->grid.preset, "taxi");
  EXPECT_EQ(spec->serving.strategy, QueryStrategy::kUnionSubtraction);
  EXPECT_EQ(spec->arrival.mode, ScenarioArrival::Mode::kClosed);
  EXPECT_DOUBLE_EQ(spec->mix.point, 1.0);  // default mix is all-point
  EXPECT_TRUE(spec->faults.empty());
}

TEST(ScenarioSpecTest, UnknownKeyIsRejectedWithItsLine) {
  auto spec = ParseScenarioSpec(R"({
  "name": "typo",
  "grid": {"size": 16, "timestpes": 88}
})");
  ASSERT_FALSE(spec.ok());
  const std::string message = spec.status().ToString();
  EXPECT_NE(message.find("timestpes"), std::string::npos) << message;
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(ScenarioSpecTest, WrongTypeIsRejectedWithItsLine) {
  auto spec = ParseScenarioSpec(R"({
  "name": "types",
  "seed": "not a number"
})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("line 3"), std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, ChurnFractionParsesAndRejectsOutOfRangeAtItsLine) {
  auto spec = ParseScenarioSpec(R"({
  "name": "churny",
  "ingest": {"steps": 12, "churn_fraction": 0.1}
})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->ingest.churn_fraction, 0.1);

  auto zero = ParseScenarioSpec(R"({
  "name": "churny",
  "ingest": {"steps": 12,
             "churn_fraction": 0.0}
})");
  ASSERT_FALSE(zero.ok());
  const std::string message = zero.status().ToString();
  EXPECT_NE(message.find("churn_fraction"), std::string::npos) << message;
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;

  auto above = ParseScenarioSpec(
      R"({"name": "churny", "ingest": {"churn_fraction": 1.5}})");
  EXPECT_FALSE(above.ok());
}

TEST(ScenarioSpecTest, MixFractionsMustSumToOne) {
  auto spec = ParseScenarioSpec(R"({
  "name": "bad_mix",
  "mix": {"point": 0.5, "time_range": 0.2}
})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("sum to 1"), std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, FaultWindowMustFitTheRun) {
  auto spec = ParseScenarioSpec(R"({
  "name": "late_fault",
  "arrival": {"duration_ticks": 32},
  "faults": [{"kind": "write_refusal", "start_tick": 8, "end_tick": 64}]
})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("duration_ticks"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, FaultKindIsRequired) {
  auto spec = ParseScenarioSpec(R"({
  "name": "anonymous_fault",
  "faults": [{"start_tick": 0, "end_tick": 8}]
})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("kind"), std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioSpecTest, EmptyHotspotRectIsRejected) {
  auto spec = ParseScenarioSpec(R"({
  "name": "bad_rect",
  "regions": {"hotspot_rects": [[4, 4, 4, 8]]}
})");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("empty"), std::string::npos)
      << spec.status().ToString();
}

// ---------------------------------------------------------------------------
// Workload samplers

TEST(WorkloadTest, ZipfSkewsTowardLowRanks) {
  ZipfSampler zipf(8, 1.5);
  Rng rng(5);
  std::vector<int64_t> counts(8, 0);
  for (int i = 0; i < 4000; ++i) {
    const int64_t rank = zipf.Sample(&rng);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 8);
    ++counts[static_cast<size_t>(rank)];
  }
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[3], counts[7]);
}

TEST(WorkloadTest, ZipfIsDeterministicPerSeed) {
  ZipfSampler zipf(16, 1.0);
  Rng a(9), b(9);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
}

TEST(WorkloadTest, HotspotOverlapRanksRegionsFirst) {
  // Three rect regions on an 8x8 grid; the hotspot covers only the last.
  std::vector<GridMask> regions;
  for (int i = 0; i < 3; ++i) {
    GridMask mask(8, 8);
    mask.FillRect(0, i * 2, 2, i * 2 + 2);
    regions.push_back(std::move(mask));
  }
  std::vector<std::array<int64_t, 4>> hotspots = {{0, 4, 2, 6}};
  const auto order = RankRegionsByHotspotOverlap(regions, hotspots, 8, 8);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);  // only region overlapping the hotspot
  // Ties (zero overlap) keep generator order.
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 1);

  // No hotspots: identity order.
  const auto plain = RankRegionsByHotspotOverlap(regions, {}, 8, 8);
  EXPECT_EQ(plain, (std::vector<int64_t>{0, 1, 2}));
}

TEST(WorkloadTest, BurstWindowsMultiply) {
  ScenarioArrival arrival;
  arrival.bursts.push_back({10, 20, 4.0});
  arrival.bursts.push_back({15, 25, 2.0});
  EXPECT_DOUBLE_EQ(BurstMultiplierAt(arrival, 5), 1.0);
  EXPECT_DOUBLE_EQ(BurstMultiplierAt(arrival, 10), 4.0);
  EXPECT_DOUBLE_EQ(BurstMultiplierAt(arrival, 17), 8.0);  // overlap
  EXPECT_DOUBLE_EQ(BurstMultiplierAt(arrival, 20), 2.0);  // end-exclusive
  EXPECT_DOUBLE_EQ(BurstMultiplierAt(arrival, 25), 1.0);
}

TEST(WorkloadTest, ClosedLoopIssuesOnePerClient) {
  ScenarioArrival arrival;
  arrival.mode = ScenarioArrival::Mode::kClosed;
  arrival.clients = 3;
  Rng rng(1);
  for (int64_t tick = 0; tick < 8; ++tick) {
    EXPECT_EQ(ArrivalsAtTick(arrival, tick, &rng), 3);
  }
}

TEST(WorkloadTest, OpenLoopZeroRateIssuesNothing) {
  ScenarioArrival arrival;
  arrival.mode = ScenarioArrival::Mode::kOpen;
  arrival.rate_per_tick = 0.0;
  Rng rng(1);
  EXPECT_EQ(ArrivalsAtTick(arrival, 0, &rng), 0);
}

// ---------------------------------------------------------------------------
// Engine determinism + the committed golden matrix

ScenarioSpec SmallSpec() {
  auto spec = ParseScenarioSpec(R"({
  "name": "unit_small",
  "seed": 3,
  "ingest": {"steps": 6, "publish_every_ticks": 4},
  "arrival": {"mode": "closed", "duration_ticks": 24, "clients": 1},
  "mix": {"point": 0.6, "time_range": 0.4, "range_len": 3}
})");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

TEST(ScenarioEngineTest, SameSpecAndSeedIsByteIdentical) {
  const ScenarioSpec spec = SmallSpec();
  auto first = RunScenario(spec);
  auto second = RunScenario(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(first->passed());
  EXPECT_EQ(first->CanonicalJson(), second->CanonicalJson());
}

TEST(ScenarioEngineTest, DifferentSeedChangesTheWorkloadNotTheVerdict) {
  ScenarioSpec spec = SmallSpec();
  auto first = RunScenario(spec);
  spec.seed = 4;
  auto second = RunScenario(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->passed());
  // Invariants hold under any seed; the sampled counters move.
  EXPECT_NE(first->CanonicalJson(), second->CanonicalJson());
}

TEST(ScenarioEngineTest, RejectsWorldsTooSmallForTheIngest) {
  ScenarioSpec spec = SmallSpec();
  spec.ingest.steps = 1000;  // no dataset split holds this many test slots
  spec.mix.range_len = 3;
  auto verdict = RunScenario(spec);
  EXPECT_FALSE(verdict.ok());
}

// The slow reader pins every shard's epoch: at N=2 each shard's pinned
// layer-1 frame and SAT plane must survive the retention horizon's
// reclaims, and those reclaims are counted by the shard managers.
TEST(ScenarioEngineTest, SlowReaderPinsEveryShard) {
  auto spec = LoadScenarioSpec(
      (fs::path(ONE4ALL_SOURCE_DIR) / "scenarios" / "fault_slow_reader.json")
          .string());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  spec->serving.shards = 2;
  auto verdict = RunScenario(*spec);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict->passed());
  bool checked = false;
  for (const InvariantCheck& check : verdict->invariants) {
    if (check.name != "pinned_epoch_survived") continue;
    checked = true;
    EXPECT_TRUE(check.held) << check.detail;
  }
  EXPECT_TRUE(checked);
  EXPECT_GT(verdict->epochs_reclaimed, 0);
}

TEST(ScenarioMatrixTest, CommittedScenariosMatchTheirGoldens) {
  const fs::path dir = fs::path(ONE4ALL_SOURCE_DIR) / "scenarios";
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      specs.push_back(entry.path());
    }
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_GE(specs.size(), 8u) << "scenario matrix shrank under " << dir;

  for (const auto& spec_path : specs) {
    SCOPED_TRACE(spec_path.string());
    auto spec = LoadScenarioSpec(spec_path.string());
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto verdict = RunScenario(*spec);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict->passed());
    const fs::path golden =
        dir / "golden" / (spec_path.stem().string() + ".golden.json");
    EXPECT_EQ(verdict->CanonicalJson(), ReadFileOrDie(golden))
        << "regenerate with: scenario_runner --dir scenarios "
           "--update-goldens";
  }
}

}  // namespace
}  // namespace one4all
