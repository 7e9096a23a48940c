// Telemetry block of the online serving runtime: lock-free counters
// plus log-bucketed latency histograms, cheap enough to update on every
// query under concurrent load, snapshot-readable at any time, printable
// via core/table_printer — and registered under Prometheus-style names
// in an obs::MetricsRegistry so the same atomics back the text
// exposition and JSON dump.
#ifndef ONE4ALL_SERVE_TELEMETRY_H_
#define ONE4ALL_SERVE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "core/table_printer.h"
#include "obs/metrics.h"
#include "query/query_spec.h"

namespace one4all {

/// \brief Point-in-time copy of every serving counter.
struct ServingTelemetrySnapshot {
  int64_t queries_served = 0;    ///< queries answered with an OK response
  int64_t queries_failed = 0;    ///< admitted but answered with an error
  int64_t queries_rejected = 0;  ///< refused by admission control
  int64_t batches_admitted = 0;
  int64_t batches_rejected = 0;
  int64_t epochs_published = 0;
  int64_t epochs_reclaimed = 0;
  int64_t frames_staged = 0;
  int64_t sat_planes_built = 0;  ///< summed-area planes staged with frames
  /// Tiles copied fresh by delta staging because their cells changed —
  /// together with cow_shared_tiles this measures the per-epoch churn
  /// the incremental publication path actually paid for.
  int64_t stage_dirty_tiles = 0;
  /// Tiles aliased from the previous timestep's frame/plane instead of
  /// copied (the copy-on-write savings of delta staging).
  int64_t cow_shared_tiles = 0;
  /// Publish attempts the ingestor aborted because the store refused a
  /// frame/plane write (fault injection, disk-full analogue). Each is an
  /// absorbed failure: the staging epoch was dropped whole and the
  /// timestep retried — readers never saw any of it.
  int64_t publish_failures = 0;
  /// Executed specs by QuerySpecKind (point / range / multi-region /
  /// top-k), indexed by static_cast<int>(kind).
  std::array<int64_t, kNumQuerySpecKinds> specs_by_kind{};
  double query_p50_micros = 0.0;  ///< per-query response time (paper sense)
  double query_p99_micros = 0.0;
  double query_mean_micros = 0.0;
  double query_min_micros = 0.0;  ///< fastest observed query
  double query_max_micros = 0.0;  ///< slowest observed query (true max)
  double publish_p50_micros = 0.0;  ///< stage+publish latency per epoch
  double publish_p99_micros = 0.0;
  double publish_min_micros = 0.0;
  double publish_max_micros = 0.0;

  /// \brief Fraction of admitted queries answered OK. Guarded: an idle
  /// runtime (nothing admitted yet) reports 0.0, never NaN.
  double query_success_rate() const {
    const int64_t admitted = queries_served + queries_failed;
    return admitted == 0 ? 0.0
                         : static_cast<double>(queries_served) /
                               static_cast<double>(admitted);
  }

  /// \brief Two-column counter table for operators.
  TablePrinter Render(const std::string& title = "Serving telemetry") const;
};

/// \brief Shared mutable telemetry: the runtime, ingestor and epoch
/// manager all write into one of these. Every member is individually
/// atomic; Snapshot() is a relaxed read of each (counters are
/// monotonic, so a snapshot is always a sane, if not instantaneous,
/// view). The constructor registers each member in registry() under a
/// `one4all_`-prefixed metric name, so ExpositionText()/JsonText() read
/// the very same atomics the snapshot does.
class ServingTelemetry {
 public:
  ServingTelemetry();
  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  Counter queries_served;
  Counter queries_failed;
  Counter queries_rejected;
  Counter batches_admitted;
  Counter batches_rejected;
  Counter epochs_published;
  Counter epochs_reclaimed;
  Counter frames_staged;
  Counter sat_planes_built;
  Counter stage_dirty_tiles;
  Counter cow_shared_tiles;
  Counter publish_failures;
  /// Executed specs by QuerySpecKind, indexed by static_cast<int>(kind).
  std::array<Counter, kNumQuerySpecKinds> specs_by_kind{};
  /// Per-row response micros in the paper's sense: the resolve-cache
  /// probe on a hit, decompose + index on a miss.
  LatencyHistogram query_latency;
  /// Per-call micros of ExecuteSpec from entry to return:
  /// plan, admission, epoch pin, resolve, gather, fold and rank.
  LatencyHistogram query_e2e;
  LatencyHistogram publish_latency;  ///< per-epoch stage+publish micros
  /// Per-epoch micros of the inference call that produced its frames:
  /// on a model deployment, most of a published frame's staleness.
  LatencyHistogram infer_latency;

  /// \brief One relaxed increment on the spec's kind counter.
  void CountSpec(QuerySpecKind kind) {
    specs_by_kind[static_cast<size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  ServingTelemetrySnapshot Snapshot() const;

  /// \brief Named-metric view of this telemetry block. Callers may
  /// register additional process metrics (trace-ring drops, cache
  /// stats) before scraping.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// \brief Zeroes every counter and histogram — bench warmup isolation:
  /// run the warmup storm, Reset(), then measure the steady state alone.
  /// Not atomic across counters; call while the runtime is quiescent.
  void Reset();

 private:
  MetricsRegistry registry_;
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_TELEMETRY_H_
