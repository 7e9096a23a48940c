#include "serve/telemetry.h"

namespace one4all {

ServingTelemetry::ServingTelemetry() {
  registry_.RegisterCounter("one4all_queries_served",
                            "Queries answered with an OK response", "",
                            &queries_served);
  registry_.RegisterCounter("one4all_queries_failed",
                            "Admitted queries answered with an error", "",
                            &queries_failed);
  registry_.RegisterCounter("one4all_queries_rejected",
                            "Queries refused by admission control", "",
                            &queries_rejected);
  registry_.RegisterCounter("one4all_batches_admitted",
                            "Query specs past admission control", "",
                            &batches_admitted);
  registry_.RegisterCounter("one4all_batches_rejected",
                            "Query specs refused by admission control",
                            "", &batches_rejected);
  registry_.RegisterCounter("one4all_epochs_published",
                            "Epochs atomically published", "",
                            &epochs_published);
  registry_.RegisterCounter("one4all_epochs_reclaimed",
                            "Retired epoch generations reclaimed", "",
                            &epochs_reclaimed);
  registry_.RegisterCounter("one4all_frames_staged",
                            "Layer frames staged into epochs", "",
                            &frames_staged);
  registry_.RegisterCounter("one4all_sat_planes_built",
                            "Summed-area planes built alongside frames",
                            "", &sat_planes_built);
  registry_.RegisterCounter("one4all_stage_dirty_tiles",
                            "Tiles copied fresh by delta staging", "",
                            &stage_dirty_tiles);
  registry_.RegisterCounter("one4all_cow_shared_tiles",
                            "Tiles aliased copy-on-write from the "
                            "previous timestep",
                            "", &cow_shared_tiles);
  registry_.RegisterCounter("one4all_publish_failures",
                            "Publish attempts absorbed after a store "
                            "write refusal",
                            "", &publish_failures);
  for (int k = 0; k < kNumQuerySpecKinds; ++k) {
    registry_.RegisterCounter(
        "one4all_specs", "Executed query specs by kind",
        std::string("kind=\"") +
            QuerySpecKindName(static_cast<QuerySpecKind>(k)) + "\"",
        &specs_by_kind[static_cast<size_t>(k)]);
  }
  registry_.RegisterHistogram(
      "one4all_query_latency_micros",
      "Per-row response time in the paper's sense (cache probe on a hit, "
      "decompose + index on a miss) in microseconds",
      "", &query_latency);
  registry_.RegisterHistogram(
      "one4all_query_e2e_micros",
      "Per-call end-to-end query latency (entry to return, admission "
      "included) in microseconds",
      "", &query_e2e);
  registry_.RegisterHistogram(
      "one4all_publish_latency_micros",
      "Per-epoch stage+publish latency in microseconds", "",
      &publish_latency);
  registry_.RegisterHistogram(
      "one4all_infer_latency_micros",
      "Per-epoch inference (new observation to multi-scale frames) "
      "latency in microseconds",
      "", &infer_latency);
}

ServingTelemetrySnapshot ServingTelemetry::Snapshot() const {
  ServingTelemetrySnapshot snap;
  snap.queries_served = queries_served.load(std::memory_order_relaxed);
  snap.queries_failed = queries_failed.load(std::memory_order_relaxed);
  snap.queries_rejected = queries_rejected.load(std::memory_order_relaxed);
  snap.batches_admitted = batches_admitted.load(std::memory_order_relaxed);
  snap.batches_rejected = batches_rejected.load(std::memory_order_relaxed);
  snap.epochs_published = epochs_published.load(std::memory_order_relaxed);
  snap.epochs_reclaimed = epochs_reclaimed.load(std::memory_order_relaxed);
  snap.frames_staged = frames_staged.load(std::memory_order_relaxed);
  snap.sat_planes_built =
      sat_planes_built.load(std::memory_order_relaxed);
  snap.stage_dirty_tiles =
      stage_dirty_tiles.load(std::memory_order_relaxed);
  snap.cow_shared_tiles =
      cow_shared_tiles.load(std::memory_order_relaxed);
  snap.publish_failures =
      publish_failures.load(std::memory_order_relaxed);
  for (int k = 0; k < kNumQuerySpecKinds; ++k) {
    snap.specs_by_kind[static_cast<size_t>(k)] =
        specs_by_kind[static_cast<size_t>(k)].load(
            std::memory_order_relaxed);
  }
  snap.query_p50_micros = query_latency.PercentileMicros(0.50);
  snap.query_p99_micros = query_latency.PercentileMicros(0.99);
  snap.query_mean_micros = query_latency.MeanMicros();
  snap.query_min_micros = query_latency.MinMicros();
  snap.query_max_micros = query_latency.MaxMicros();
  snap.publish_p50_micros = publish_latency.PercentileMicros(0.50);
  snap.publish_p99_micros = publish_latency.PercentileMicros(0.99);
  snap.publish_min_micros = publish_latency.MinMicros();
  snap.publish_max_micros = publish_latency.MaxMicros();
  return snap;
}

void ServingTelemetry::Reset() {
  queries_served.store(0, std::memory_order_relaxed);
  queries_failed.store(0, std::memory_order_relaxed);
  queries_rejected.store(0, std::memory_order_relaxed);
  batches_admitted.store(0, std::memory_order_relaxed);
  batches_rejected.store(0, std::memory_order_relaxed);
  epochs_published.store(0, std::memory_order_relaxed);
  epochs_reclaimed.store(0, std::memory_order_relaxed);
  frames_staged.store(0, std::memory_order_relaxed);
  sat_planes_built.store(0, std::memory_order_relaxed);
  stage_dirty_tiles.store(0, std::memory_order_relaxed);
  cow_shared_tiles.store(0, std::memory_order_relaxed);
  publish_failures.store(0, std::memory_order_relaxed);
  for (auto& counter : specs_by_kind) {
    counter.store(0, std::memory_order_relaxed);
  }
  query_latency.Reset();
  query_e2e.Reset();
  publish_latency.Reset();
  infer_latency.Reset();
}

TablePrinter ServingTelemetrySnapshot::Render(
    const std::string& title) const {
  TablePrinter table(title);
  table.SetHeader({"Counter", "Value"});
  table.AddRow({"queries served", std::to_string(queries_served)});
  table.AddRow({"queries failed", std::to_string(queries_failed)});
  table.AddRow({"queries rejected (admission)",
                std::to_string(queries_rejected)});
  table.AddRow({"batches admitted", std::to_string(batches_admitted)});
  table.AddRow({"batches rejected", std::to_string(batches_rejected)});
  table.AddRow({"epochs published", std::to_string(epochs_published)});
  table.AddRow({"epochs reclaimed", std::to_string(epochs_reclaimed)});
  table.AddRow({"frames staged", std::to_string(frames_staged)});
  table.AddRow({"SAT planes built", std::to_string(sat_planes_built)});
  table.AddRow({"stage dirty tiles", std::to_string(stage_dirty_tiles)});
  table.AddRow({"CoW shared tiles", std::to_string(cow_shared_tiles)});
  table.AddRow({"publish failures (absorbed)",
                std::to_string(publish_failures)});
  table.AddSeparator();
  for (int k = 0; k < kNumQuerySpecKinds; ++k) {
    table.AddRow({std::string("specs ") +
                      QuerySpecKindName(static_cast<QuerySpecKind>(k)),
                  std::to_string(specs_by_kind[static_cast<size_t>(k)])});
  }
  table.AddSeparator();
  table.AddRow({"query p50 (us)", TablePrinter::Num(query_p50_micros, 1)});
  table.AddRow({"query p99 (us)", TablePrinter::Num(query_p99_micros, 1)});
  table.AddRow({"query mean (us)",
                TablePrinter::Num(query_mean_micros, 1)});
  table.AddRow({"query min (us)", TablePrinter::Num(query_min_micros, 1)});
  table.AddRow({"query max (us)", TablePrinter::Num(query_max_micros, 1)});
  table.AddRow({"publish p50 (us)",
                TablePrinter::Num(publish_p50_micros, 1)});
  table.AddRow({"publish p99 (us)",
                TablePrinter::Num(publish_p99_micros, 1)});
  table.AddRow({"publish min (us)",
                TablePrinter::Num(publish_min_micros, 1)});
  table.AddRow({"publish max (us)",
                TablePrinter::Num(publish_max_micros, 1)});
  return table;
}

}  // namespace one4all
