// Declarative scenario specs for the spec-driven workload engine: a JSON
// file describes the synthetic world (grid + dataset preset), the serving
// configuration, the ingest cadence, the arrival process (open/closed
// loop, deterministic Poisson, flash-crowd bursts), the region popularity
// skew (Zipf over hotspot rects), the query-shape mix and a fault
// timeline — everything the ScenarioEngine needs to drive ServingRuntime
// reproducibly from one seed. Parsing is schema-validated with
// line-precise errors (unknown keys, wrong types, out-of-range values all
// point at the offending line of the spec file).
#ifndef ONE4ALL_SCENARIO_SCENARIO_SPEC_H_
#define ONE4ALL_SCENARIO_SCENARIO_SPEC_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "grid/region_generator.h"
#include "query/query_spec.h"

namespace one4all {

/// \brief Synthetic world the scenario runs against.
struct ScenarioGrid {
  int64_t size = 16;        ///< square raster edge (atomic cells)
  int64_t timesteps = 88;   ///< generated history length
  std::string preset = "taxi";  ///< "taxi" (dense) or "freight" (sparse)
};

/// \brief ServingRuntime knobs the spec controls.
struct ScenarioServing {
  int64_t max_inflight = 4096;  ///< admission-control budget
  int64_t retain_timesteps = 0;  ///< carry-forward horizon (0 = unbounded)
  QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
  /// Spatial shard count (ServingRuntimeOptions::num_shards): 1 serves
  /// the classic single-store path; > 1 runs the band-sharded barrier
  /// topology, and the verdict gains the cross_shard_epoch_consistent
  /// invariant.
  int64_t shards = 1;
};

/// \brief Epoch-publication cadence on the scenario's virtual clock.
struct ScenarioIngest {
  int64_t steps = 12;  ///< timesteps the stream publishes over the run
  /// Publish one timestep every N virtual ticks (the churn rate: 1 is
  /// churn-heavy, large values serve a nearly-static window).
  int64_t publish_every_ticks = 8;
  /// Fraction of the grid's rows that actually change between published
  /// timesteps, in (0, 1]. Below 1, each synthetic frame keeps the
  /// previous frame's values outside a rotating row band, so the
  /// ingestor's tile diff yields small dirty sets and epochs publish
  /// through the incremental (CoW) staging path. 1 (the default) leaves
  /// the generated flows untouched.
  double churn_fraction = 1.0;
};

/// \brief One flash-crowd window: arrival rate multiplied inside
/// [start_tick, end_tick).
struct ScenarioBurst {
  int64_t start_tick = 0;
  int64_t end_tick = 0;
  double multiplier = 1.0;
};

/// \brief Arrival process over virtual ticks.
struct ScenarioArrival {
  enum class Mode {
    kOpen,    ///< Poisson(rate_per_tick x burst multiplier) arrivals/tick
    kClosed,  ///< `clients` queries per tick (each client issues the next
              ///< request as soon as the previous completes)
  };
  Mode mode = Mode::kClosed;
  int64_t duration_ticks = 96;
  double rate_per_tick = 2.0;  ///< open-loop mean arrivals per tick
  int64_t clients = 2;         ///< closed-loop virtual clients
  std::vector<ScenarioBurst> bursts;
};

/// \brief Region workload: how the query regions are generated and how
/// popularity is skewed across them.
struct ScenarioRegions {
  RegionStyle style = RegionStyle::kVoronoi;
  double mean_cells = 10.0;
  uint64_t seed = 23;
  /// Zipf exponent of the popularity distribution over regions ranked by
  /// hotspot overlap (0 = uniform).
  double zipf_exponent = 0.0;
  /// Atomic-cell rects [r0, c0, r1, c1) (end-exclusive) marking the hot
  /// districts; regions are ranked by overlap with these before the Zipf
  /// skew applies. Empty: generator order.
  std::vector<std::array<int64_t, 4>> hotspot_rects;
};

/// \brief Query-shape mix. Fractions must sum to ~1; each arrival samples
/// one shape.
struct ScenarioMix {
  double point = 1.0;
  double time_range = 0.0;
  double multi_region = 0.0;
  double top_k = 0.0;
  int64_t range_len = 4;   ///< time-range span in timesteps
  int64_t group_size = 4;  ///< regions per multi-region / top-k spec
  int64_t k = 3;           ///< top-k cut
  TimeAggregation aggregation = TimeAggregation::kSum;
};

/// \brief One fault-injection window on the virtual clock.
struct ScenarioFault {
  enum class Kind {
    kStalledPublisher,     ///< ingest publish loop paused
    kWriteRefusal,         ///< PredictionStore refuses frame/plane writes
    kSlowReader,           ///< a reader pins the then-current epoch
    kAdmissionSaturation,  ///< over-budget specs fired at the runtime
  };
  Kind kind = Kind::kStalledPublisher;
  int64_t start_tick = 0;
  int64_t end_tick = 0;  ///< exclusive
};

const char* ScenarioFaultKindName(ScenarioFault::Kind kind);

/// \brief A fully-parsed scenario. Build with ParseScenarioSpec (or
/// LoadScenarioSpec for a file); Validate() has already passed then.
struct ScenarioSpec {
  std::string name;
  std::string description;
  uint64_t seed = 1;
  ScenarioGrid grid;
  ScenarioServing serving;
  ScenarioIngest ingest;
  ScenarioArrival arrival;
  ScenarioRegions regions;
  ScenarioMix mix;
  std::vector<ScenarioFault> faults;

  /// \brief Cross-field checks that need no source positions (fraction
  /// sum, fault windows inside the run, ingest fits the dataset).
  /// ParseScenarioSpec calls this; exposed for programmatic spec builds.
  Status Validate() const;
};

/// \brief Parses + schema-validates one scenario spec. Errors carry
/// "line L, column C" of the offending token; unknown keys are rejected
/// (a typo must fail loudly, not silently run the default workload).
Result<ScenarioSpec> ParseScenarioSpec(const std::string& json_text);

/// \brief Reads `path` and parses it; parse errors are prefixed with the
/// file path.
Result<ScenarioSpec> LoadScenarioSpec(const std::string& path);

}  // namespace one4all

#endif  // ONE4ALL_SCENARIO_SCENARIO_SPEC_H_
