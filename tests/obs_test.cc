// Tests for the observability subsystem (src/obs): the lock-free trace
// event ring (drop-oldest accounting, torn-read rejection under
// concurrent writers), the span recorder (head sampling, parent/child
// nesting through a real ServingRuntime), the exporters (Chrome
// trace_event JSON structural validity, slowest-N tree rendering) and
// the metrics layer (histogram sanitization, percentile monotonicity,
// min/max gauges, Prometheus exposition format + validator).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "scenario/scenario_json.h"
#include "serve/serving_runtime.h"
#include "test_util.h"

namespace one4all {
namespace {

// ---------------------------------------------------------------------------
// TraceEventRing

TraceEvent MakeEvent(uint64_t id) {
  TraceEvent event;
  event.trace_id = id;
  event.span_id = id * 3 + 1;
  event.parent_id = id == 0 ? 0 : id - 1;
  event.start_nanos = id * 100;
  event.duration_nanos = id * 7;
  event.arg = static_cast<int64_t>(id * 11);
  event.thread_id = static_cast<uint32_t>(id % 5);
  event.name = static_cast<uint8_t>(id % kNumSpanNames);
  event.category = static_cast<uint8_t>(id % 2);
  return event;
}

TEST(TraceEventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceEventRing(1).capacity(), 2u);
  EXPECT_EQ(TraceEventRing(2).capacity(), 2u);
  EXPECT_EQ(TraceEventRing(3).capacity(), 4u);
  EXPECT_EQ(TraceEventRing(64).capacity(), 64u);
  EXPECT_EQ(TraceEventRing(65).capacity(), 128u);
}

TEST(TraceEventRingTest, KeepsEverythingBelowCapacity) {
  TraceEventRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) ring.Append(MakeEvent(i));
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  // Oldest first, payload intact.
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].trace_id, i);
    EXPECT_EQ(events[i].span_id, i * 3 + 1);
    EXPECT_EQ(events[i].arg, static_cast<int64_t>(i * 11));
  }
  EXPECT_EQ(ring.total_appended(), 5);
  EXPECT_EQ(ring.dropped_total(), 0);
}

TEST(TraceEventRingTest, DropsOldestAndAccountsForEveryLoss) {
  TraceEventRing ring(8);
  const uint64_t total = 35;  // 4x capacity + a bit
  for (uint64_t i = 0; i < total; ++i) ring.Append(MakeEvent(i));
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), ring.capacity());
  // The newest `capacity` events survive, oldest-first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, total - ring.capacity() + i);
  }
  EXPECT_EQ(ring.total_appended(), static_cast<int64_t>(total));
  EXPECT_EQ(ring.dropped_overwritten(),
            static_cast<int64_t>(total - ring.capacity()));
  EXPECT_EQ(ring.dropped_total(),
            ring.dropped_overwritten() + ring.dropped_contended());
  // Accounting identity: everything appended is either readable or
  // accounted as dropped.
  EXPECT_EQ(ring.total_appended(),
            static_cast<int64_t>(events.size()) + ring.dropped_total());
}

// Concurrency hammer: writers lap the ring while readers snapshot.
// Every event is written with internally-consistent fields, so a torn
// slot that leaked through the seqlock would be visible as a mismatch.
// Under TSan this also proves the protocol is race-free.
TEST(TraceEventRingTest, ConcurrentWritersAndReadersNeverTear) {
  TraceEventRing ring(64);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const TraceEvent& event : ring.Snapshot()) {
        // Same relationships MakeEvent established.
        if (event.span_id != event.trace_id * 3 + 1 ||
            event.arg != static_cast<int64_t>(event.trace_id * 11) ||
            event.duration_nanos != event.trace_id * 7) {
          torn.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Append(MakeEvent(static_cast<uint64_t>(w) * kPerWriter + i));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(ring.total_appended(),
            static_cast<int64_t>(kWriters * kPerWriter));
  // Post-quiescence the identity must hold exactly.
  EXPECT_EQ(ring.total_appended(),
            static_cast<int64_t>(ring.Snapshot().size()) +
                ring.dropped_total());
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, SanitizesNonFiniteAndNegativeSamples) {
  LatencyHistogram histogram;
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  histogram.Record(std::numeric_limits<double>::infinity());
  histogram.Record(-std::numeric_limits<double>::infinity());
  histogram.Record(-5.0);
  EXPECT_EQ(histogram.count(), 4);
  // All four land in bucket 0 as value 0 — nothing poisons the totals.
  EXPECT_TRUE(std::isfinite(histogram.total_micros()));
  EXPECT_EQ(histogram.total_micros(), 0.0);
  EXPECT_TRUE(std::isfinite(histogram.MeanMicros()));
  EXPECT_TRUE(std::isfinite(histogram.PercentileMicros(0.99)));
  EXPECT_EQ(histogram.MinMicros(), 0.0);
  EXPECT_EQ(histogram.MaxMicros(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(static_cast<double>(i));
  const double p0 = histogram.PercentileMicros(0.0);
  const double p50 = histogram.PercentileMicros(0.5);
  const double p99 = histogram.PercentileMicros(0.99);
  const double p100 = histogram.PercentileMicros(1.0);
  EXPECT_LE(p0, p50);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p100);
  // Quantiles never escape the observed range: geometric bucket upper
  // bounds are clamped into [min, max].
  EXPECT_GE(p0, histogram.MinMicros());
  EXPECT_LE(p100, histogram.MaxMicros());
  EXPECT_EQ(histogram.MaxMicros(), 1000.0);
  EXPECT_EQ(histogram.MinMicros(), 1.0);
  // p50 of 1..1000 should land within a bucket's width of 500 (~19%).
  EXPECT_GT(p50, 400.0);
  EXPECT_LT(p50, 650.0);
}

TEST(LatencyHistogramTest, SingleSampleCollapsesAllQuantiles) {
  LatencyHistogram histogram;
  histogram.Record(100.0);
  // With one sample every quantile is that sample, exactly — the bucket
  // upper bound (~103 us) must not leak out.
  EXPECT_EQ(histogram.PercentileMicros(0.0), 100.0);
  EXPECT_EQ(histogram.PercentileMicros(0.5), 100.0);
  EXPECT_EQ(histogram.PercentileMicros(0.99), 100.0);
  EXPECT_EQ(histogram.MinMicros(), 100.0);
  EXPECT_EQ(histogram.MaxMicros(), 100.0);
  EXPECT_NEAR(histogram.MeanMicros(), 100.0, 1e-6);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.PercentileMicros(0.5), 0.0);
  EXPECT_EQ(histogram.MinMicros(), 0.0);
  EXPECT_EQ(histogram.MaxMicros(), 0.0);
  EXPECT_EQ(histogram.MeanMicros(), 0.0);
}

TEST(LatencyHistogramTest, MinMaxTrackExtremesAndResetClears) {
  LatencyHistogram histogram;
  histogram.Record(42.0);
  histogram.Record(7.0);
  histogram.Record(9000.0);
  histogram.Record(13.0);
  EXPECT_EQ(histogram.MinMicros(), 7.0);
  EXPECT_EQ(histogram.MaxMicros(), 9000.0);
  EXPECT_EQ(histogram.count(), 4);

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.MinMicros(), 0.0);
  EXPECT_EQ(histogram.MaxMicros(), 0.0);
  histogram.Record(3.0);
  EXPECT_EQ(histogram.MinMicros(), 3.0);
  EXPECT_EQ(histogram.MaxMicros(), 3.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordersKeepExactCountAndExtremes) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_EQ(histogram.MinMicros(), 1.0);
  EXPECT_EQ(histogram.MaxMicros(),
            static_cast<double>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// MetricsRegistry exposition

TEST(MetricsRegistryTest, ExpositionFormatGolden) {
  MetricsRegistry registry;
  Counter* requests = registry.AddCounter("app_requests", "Requests seen");
  Gauge* temperature = registry.AddGauge("app_temperature",
                                         "Current temperature");
  requests->fetch_add(7);
  temperature->Set(21.5);

  const std::string text = registry.ExpositionText();
  EXPECT_EQ(text,
            "# HELP app_requests_total Requests seen\n"
            "# TYPE app_requests_total counter\n"
            "app_requests_total 7\n"
            "# HELP app_temperature Current temperature\n"
            "# TYPE app_temperature gauge\n"
            "app_temperature 21.5\n");
  EXPECT_TRUE(MetricsRegistry::ValidateExposition(text).ok());
}

TEST(MetricsRegistryTest, HistogramExposesSummaryQuantilesAndMinMax) {
  MetricsRegistry registry;
  LatencyHistogram* latency =
      registry.AddHistogram("app_latency_micros", "Latency");
  latency->Record(10.0);
  latency->Record(20.0);
  latency->Record(30.0);

  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE app_latency_micros summary"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_micros{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_micros{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_micros_sum 60\n"), std::string::npos);
  EXPECT_NE(text.find("app_latency_micros_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("app_latency_micros_min 10\n"), std::string::npos);
  EXPECT_NE(text.find("app_latency_micros_max 30\n"), std::string::npos);
  EXPECT_TRUE(MetricsRegistry::ValidateExposition(text).ok());
}

TEST(MetricsRegistryTest, LabeledVariantsShareOneHeader) {
  MetricsRegistry registry;
  Counter* a = registry.AddCounter("app_specs", "Specs", "kind=\"a\"");
  Counter* b = registry.AddCounter("app_specs", "Specs", "kind=\"b\"");
  a->fetch_add(1);
  b->fetch_add(2);
  const std::string text = registry.ExpositionText();
  // One HELP/TYPE pair for the family, two labeled samples.
  size_t first = text.find("# TYPE app_specs_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE app_specs_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("app_specs_total{kind=\"a\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("app_specs_total{kind=\"b\"} 2\n"),
            std::string::npos);
  EXPECT_TRUE(MetricsRegistry::ValidateExposition(text).ok());
}

TEST(MetricsRegistryTest, CallbackGaugeEvaluatesAtScrapeTime) {
  MetricsRegistry registry;
  double live = 1.0;
  registry.RegisterCallbackGauge("app_live", "Live value", "",
                                 [&live] { return live; });
  EXPECT_NE(registry.ExpositionText().find("app_live 1\n"),
            std::string::npos);
  live = 2.5;
  EXPECT_NE(registry.ExpositionText().find("app_live 2.5\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ValidatorRejectsMalformedExposition) {
  // Sample without a preceding TYPE.
  EXPECT_FALSE(
      MetricsRegistry::ValidateExposition("orphan_metric 1\n").ok());
  // Unbalanced label braces.
  EXPECT_FALSE(MetricsRegistry::ValidateExposition(
                   "# TYPE m counter\nm{k=\"v\" 1\n")
                   .ok());
  // Value that is not a number.
  EXPECT_FALSE(MetricsRegistry::ValidateExposition(
                   "# TYPE m counter\nm banana\n")
                   .ok());
  // Unknown TYPE keyword.
  EXPECT_FALSE(MetricsRegistry::ValidateExposition(
                   "# TYPE m sandwich\nm 1\n")
                   .ok());
  // Empty exposition carries no samples.
  EXPECT_FALSE(MetricsRegistry::ValidateExposition("").ok());
}

TEST(MetricsRegistryTest, JsonDumpParses) {
  MetricsRegistry registry;
  registry.AddCounter("app_total", "Total")->fetch_add(5);
  registry.AddHistogram("app_lat", "Latency")->Record(12.0);
  auto parsed = ParseJson(registry.JsonText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  const JsonValue* total = parsed->Find("app_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->integer, 5);
  const JsonValue* lat = parsed->Find("app_lat");
  ASSERT_NE(lat, nullptr);
  ASSERT_TRUE(lat->is_object());
  EXPECT_NE(lat->Find("count"), nullptr);
  EXPECT_NE(lat->Find("max"), nullptr);
}

TEST(ServingTelemetryTest, RegistryExpositionIsValidAndComplete) {
  ServingTelemetry telemetry;
  telemetry.queries_served.fetch_add(12);
  telemetry.CountSpec(QuerySpecKind::kTopK);
  telemetry.query_e2e.Record(150.0);
  const std::string text = telemetry.registry().ExpositionText();
  EXPECT_TRUE(MetricsRegistry::ValidateExposition(text).ok());
  EXPECT_NE(text.find("one4all_queries_served_total 12\n"),
            std::string::npos);
  EXPECT_NE(text.find("one4all_specs_total{kind=\"TopK\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("one4all_query_e2e_micros_count 1\n"),
            std::string::npos);
  // The legacy snapshot API reads the same atomics.
  EXPECT_EQ(telemetry.Snapshot().queries_served, 12);
  // One query latency: the snapshot's quantiles are query_e2e's.
  EXPECT_EQ(telemetry.Snapshot().query_p99_micros,
            telemetry.query_e2e.PercentileMicros(0.99));
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorderTest, HeadSamplerKeepsRootsAndSamplesInteriors) {
  TraceRecorderOptions options;
  options.sample_every_n = 4;
  TraceRecorder recorder(options);
  for (int i = 0; i < 8; ++i) {
    TraceContext ctx = recorder.StartTrace(SpanCategory::kQuery);
    ScopedSpan root(&ctx, SpanName::kQuery);
    ScopedSpan interior(&ctx, SpanName::kGather);
  }
  int roots = 0, interiors = 0;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (event.parent_id == 0) ++roots;
    else ++interiors;
  }
  // Every root is recorded (cheap always-on accounting); interior spans
  // only for the 1-in-4 sampled trees.
  EXPECT_EQ(roots, 8);
  EXPECT_EQ(interiors, 2);
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  recorder.set_enabled(false);
  TraceContext ctx = recorder.StartTrace(SpanCategory::kQuery);
  { ScopedSpan root(&ctx, SpanName::kQuery); }
  EXPECT_EQ(recorder.total_events(), 0);
  EXPECT_FALSE(ctx.active());
}

TEST(TraceRecorderTest, NullContextIsANoop) {
  ScopedSpan span(nullptr, SpanName::kQuery);
  EXPECT_FALSE(span.recording());
  span.set_arg(7);  // must not crash
}

// ---------------------------------------------------------------------------
// Span trees through a real ServingRuntime

struct ObsServeFixture {
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;

  static ObsServeFixture Make() {
    ObsServeFixture fixture;
    fixture.dataset =
        std::make_unique<STDataset>(one4all::testing::TinyDataset());
    HistoryMeanPredictor hm;
    fixture.pipeline =
        MauPipeline::Build(&hm, *fixture.dataset, SearchOptions{});
    return fixture;
  }
};

// Runs a few specs through a runtime recording every span, and checks
// the resulting span trees nest: children start within their parent and
// the direct children of any span never sum past its duration.
TEST(SpanTreeTest, ChildrenNestWithinParents) {
  ObsServeFixture fixture = ObsServeFixture::Make();
  TraceRecorderOptions recorder_options;
  recorder_options.sample_every_n = 1;  // full trees
  TraceRecorder recorder(recorder_options);

  ServingRuntimeOptions options;
  options.trace = &recorder;
  const auto& slots = fixture.dataset->test_indices();
  options.ingest.start_t = slots.front();
  options.ingest.num_timesteps = 2;
  ServingRuntime runtime(&fixture.dataset->hierarchy(),
                         &fixture.pipeline->index(),
                         fixture.dataset.get(),
                         MakeGroundTruthInference(fixture.dataset.get()),
                         options);
  runtime.Start();
  ASSERT_TRUE(runtime.ingestor().WaitUntilPublished(slots.front()));

  GridMask region(8, 8);
  region.FillRect(1, 1, 5, 5);
  ASSERT_TRUE(
      runtime.ExecuteSpec(QuerySpec::PointInTime(region, slots.front()))
          .ok());
  auto spec_result = runtime.ExecuteSpec(QuerySpec::TimeRange(
      region, slots.front(), slots.front() + 1, TimeAggregation::kMean,
      QueryStrategy::kUnionSubtraction));
  ASSERT_TRUE(spec_result.ok()) << spec_result.status().ToString();
  runtime.Stop();

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(recorder.dropped_events(), 0);

  std::map<uint64_t, const TraceEvent*> by_span;
  std::map<uint64_t, uint64_t> child_sums;
  for (const TraceEvent& event : events) {
    by_span[event.span_id] = &event;
  }
  int checked_children = 0;
  for (const TraceEvent& event : events) {
    if (event.parent_id == 0) continue;
    auto parent_it = by_span.find(event.parent_id);
    ASSERT_NE(parent_it, by_span.end())
        << "child " << SpanNameString(static_cast<SpanName>(event.name))
        << " lost its parent (nothing was dropped)";
    const TraceEvent& parent = *parent_it->second;
    // Temporal nesting: the child's whole interval sits inside the
    // parent's (same monotonic clock, recorder-relative).
    EXPECT_GE(event.start_nanos, parent.start_nanos);
    EXPECT_LE(event.start_nanos + event.duration_nanos,
              parent.start_nanos + parent.duration_nanos);
    EXPECT_EQ(event.trace_id, parent.trace_id);
    child_sums[event.parent_id] += event.duration_nanos;
    ++checked_children;
  }
  EXPECT_GT(checked_children, 0);
  // Direct children partition (a subset of) their parent's time.
  for (const auto& [span_id, sum] : child_sums) {
    EXPECT_LE(sum, by_span[span_id]->duration_nanos)
        << "children of "
        << SpanNameString(static_cast<SpanName>(by_span[span_id]->name))
        << " overlap past their parent";
  }
  // The query tree contains the stages the runtime promises.
  bool saw_query = false, saw_plan = false, saw_gather = false,
       saw_publish = false;
  for (const TraceEvent& event : events) {
    const SpanName name = static_cast<SpanName>(event.name);
    saw_query |= name == SpanName::kQuery;
    saw_plan |= name == SpanName::kPlan;
    saw_gather |= name == SpanName::kGather;
    saw_publish |= name == SpanName::kPublishEpoch;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_publish);
}

// ---------------------------------------------------------------------------
// Exporters

std::vector<TraceEvent> SmallTree() {
  std::vector<TraceEvent> events;
  TraceEvent root;
  root.trace_id = 1;
  root.span_id = 10;
  root.parent_id = 0;
  root.start_nanos = 1000;
  root.duration_nanos = 10000;
  root.arg = 3;
  root.thread_id = 1;
  root.name = static_cast<uint8_t>(SpanName::kQuery);
  events.push_back(root);
  TraceEvent child = root;
  child.span_id = 11;
  child.parent_id = 10;
  child.start_nanos = 2000;
  child.duration_nanos = 4000;
  child.name = static_cast<uint8_t>(SpanName::kGather);
  events.push_back(child);
  return events;
}

TEST(TraceExportTest, ChromeTraceJsonIsStructurallyValid) {
  const std::string json = ChromeTraceJson(SmallTree(), /*dropped=*/5);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());

  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->Find("dropped_events");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->integer, 5);  // drops are never silent

  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->items.size(), 2u);
  for (const JsonValue& event : trace_events->items) {
    ASSERT_TRUE(event.is_object());
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");  // complete events
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("cat"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
  }
  const JsonValue& first = trace_events->items[0];
  EXPECT_EQ(first.Find("name")->string_value, "query");
  // Nanos become fractional micros.
  EXPECT_NEAR(first.Find("ts")->number, 1.0, 1e-9);
  EXPECT_NEAR(first.Find("dur")->number, 10.0, 1e-9);
}

TEST(TraceExportTest, AggregateBySpanNameSumsDurations) {
  const auto aggregates = AggregateBySpanName(SmallTree());
  const auto& query =
      aggregates[static_cast<size_t>(SpanName::kQuery)];
  const auto& gather =
      aggregates[static_cast<size_t>(SpanName::kGather)];
  EXPECT_EQ(query.count, 1);
  EXPECT_NEAR(query.total_micros, 10.0, 1e-9);
  EXPECT_EQ(gather.count, 1);
  EXPECT_NEAR(gather.MeanMicros(), 4.0, 1e-9);
  EXPECT_EQ(aggregates[static_cast<size_t>(SpanName::kRank)].count, 0);
}

TEST(TraceExportTest, RenderSlowestTreesShowsSelfTimeAndDrops) {
  const std::string rendered =
      RenderSlowestTraceTrees(SmallTree(), /*slowest=*/3,
                              /*dropped_events=*/2);
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("gather"), std::string::npos);
  EXPECT_NE(rendered.find("self"), std::string::npos);
  EXPECT_NE(rendered.find("2 event(s) dropped"), std::string::npos);
  // Empty input renders a note, not a crash.
  const std::string empty = RenderSlowestTraceTrees({}, 3, 0);
  EXPECT_FALSE(empty.empty());
}

}  // namespace
}  // namespace one4all
