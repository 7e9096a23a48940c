#include "scenario/scenario_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "model/baselines_simple.h"
#include "scenario/workload.h"
#include "serve/serving_runtime.h"

namespace one4all {

namespace {

// Values are checked relative to the ground-truth oracle. The runtime
// serves oracle frames (MakeGroundTruthInference), integer counts the
// store keeps as they are and sums exactly, so a healthy run matches the
// oracle up to its own float-frame rounding; the loose 1e-3 band means
// only a genuinely torn or misrouted read trips it.
constexpr double kValueTolerance = 1e-3;

bool ValuesAgree(double got, double truth) {
  return std::abs(got - truth) <=
         kValueTolerance * std::max(1.0, std::abs(truth));
}

/// The synthetic world a scenario runs against, built once per run.
struct World {
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<MauPipeline> pipeline;
  std::vector<GridMask> regions;
  std::vector<int64_t> popularity;  ///< region index by popularity rank
};

Result<World> BuildWorld(const ScenarioSpec& spec) {
  SyntheticDataOptions data_options =
      spec.grid.preset == "freight"
          ? SyntheticDataOptions::FreightPreset(spec.grid.size,
                                                spec.grid.size)
          : SyntheticDataOptions::TaxiPreset(spec.grid.size, spec.grid.size);
  data_options.num_timesteps = spec.grid.timesteps;
  data_options.seed = spec.seed;
  O4A_ASSIGN_OR_RETURN(SyntheticFlows flows,
                       GenerateSyntheticFlows(data_options));

  if (spec.ingest.churn_fraction < 1.0) {
    // Low-churn stream: each frame keeps the previous frame's values
    // outside a rotating row band covering ~churn_fraction of the grid.
    // The ingestor's tile diff then marks only the band's tiles dirty,
    // which drives epoch publication through the incremental (CoW)
    // staging path instead of full-frame rebuilds. Damping t in
    // ascending order makes stillness persistent: a row stays at its
    // last in-band value until the band sweeps over it again.
    const int64_t h = spec.grid.size;
    const int64_t band = std::max<int64_t>(
        1, std::llround(spec.ingest.churn_fraction *
                        static_cast<double>(h)));
    for (size_t t = 1; t < flows.frames.size(); ++t) {
      const int64_t r0 =
          (static_cast<int64_t>(t) * band) % std::max<int64_t>(1, h);
      const Tensor& prev = flows.frames[t - 1];
      Tensor& cur = flows.frames[t];
      const int64_t w = cur.dim(1);
      for (int64_t r = 0; r < h; ++r) {
        const bool in_band = ((r - r0 + h) % h) < band;
        if (in_band) continue;
        std::copy(prev.data() + r * w, prev.data() + (r + 1) * w,
                  cur.data() + r * w);
      }
    }
  }

  // Short temporal spec (MinHistory = 8) so scenario worlds stay cheap:
  // the harness is about serving behavior, not forecast horizons.
  TemporalFeatureSpec temporal;
  temporal.closeness_len = 2;
  temporal.period_len = 2;
  temporal.trend_len = 1;
  temporal.daily_interval = 4;
  temporal.weekly_interval = 8;

  Hierarchy hierarchy =
      Hierarchy::Uniform(spec.grid.size, spec.grid.size, 2, spec.grid.size);
  O4A_ASSIGN_OR_RETURN(
      STDataset dataset,
      STDataset::Create(std::move(flows), hierarchy, temporal));

  World world;
  world.dataset = std::make_unique<STDataset>(std::move(dataset));
  if (static_cast<int64_t>(world.dataset->test_indices().size()) <
      spec.ingest.steps) {
    return Status::InvalidArgument(
        "scenario \"" + spec.name + "\" wants " +
        std::to_string(spec.ingest.steps) + " ingest steps but grid of " +
        std::to_string(spec.grid.timesteps) + " timesteps only has " +
        std::to_string(world.dataset->test_indices().size()) +
        " test slots");
  }

  HistoryMeanPredictor history_mean;
  world.pipeline =
      MauPipeline::Build(&history_mean, *world.dataset, SearchOptions{});

  RegionGeneratorOptions region_options;
  region_options.style = spec.regions.style;
  region_options.mean_cells = spec.regions.mean_cells;
  region_options.seed = spec.regions.seed;
  world.regions =
      GenerateRegions(spec.grid.size, spec.grid.size, region_options);
  if (world.regions.empty()) {
    return Status::Internal("region generator produced no regions");
  }
  world.popularity = RankRegionsByHotspotOverlap(
      world.regions, spec.regions.hotspot_rects, spec.grid.size,
      spec.grid.size);
  return world;
}

/// One scenario execution: owns the runtime, the virtual clock, the
/// fault timeline and the verdict under construction.
class EngineRun {
 public:
  EngineRun(const ScenarioSpec& spec, World world)
      : spec_(spec),
        world_(std::move(world)),
        rng_(spec.seed),
        zipf_(static_cast<int64_t>(world_.regions.size()),
              spec.regions.zipf_exponent) {}

  ScenarioVerdict Run(std::string* metrics_exposition = nullptr) {
    Stopwatch wall;
    verdict_.scenario = spec_.name;
    verdict_.seed = spec_.seed;

    ServingRuntimeOptions options;
    options.max_inflight_queries = spec_.serving.max_inflight;
    options.retain_timesteps = spec_.serving.retain_timesteps;
    options.num_shards = static_cast<int>(spec_.serving.shards);
    options.ingest.start_t = world_.dataset->test_indices().front();
    options.ingest.num_timesteps = spec_.ingest.steps;
    options.ingest.manual_stepping = true;
    start_t_ = options.ingest.start_t;

    ServingRuntime runtime(
        &world_.dataset->hierarchy(), &world_.pipeline->index(),
        world_.dataset.get(),
        MakeGroundTruthInference(world_.dataset.get()), options);
    runtime_ = &runtime;
    runtime.Start();

    for (int64_t tick = 0; tick < spec_.arrival.duration_ticks; ++tick) {
      ApplyFaultTransitions(tick);
      TickIngest(tick);
      const int64_t arrivals = ArrivalsAtTick(spec_.arrival, tick, &rng_);
      for (int64_t i = 0; i < arrivals; ++i) IssueArrival();
      if (FaultActiveAt(ScenarioFault::Kind::kAdmissionSaturation, tick)) {
        IssueSaturationProbe();
      }
    }
    // Close out fault windows ending exactly at the run's horizon, then
    // let any permits granted while the publisher was stalled drain.
    ApplyFaultTransitions(spec_.arrival.duration_ticks);
    if (!publisher_paused_) {
      runtime.ingestor().WaitUntilAttempted(granted_);
    }
    pinned_.Release();
    runtime.Stop();

    // Captured post-shutdown so the artifact reflects the complete run;
    // goldens are unaffected (latency figures never enter CanonicalJson).
    if (metrics_exposition != nullptr) {
      *metrics_exposition = runtime.telemetry().registry().ExpositionText();
    }

    const ServingTelemetrySnapshot telemetry = runtime.Telemetry();
    verdict_.epochs_published = telemetry.epochs_published;
    verdict_.epochs_reclaimed = telemetry.epochs_reclaimed;
    verdict_.publish_failures = telemetry.publish_failures;
    verdict_.publish_attempts = runtime.ingestor().steps_attempted();
    verdict_.query_p50_micros = telemetry.query_p50_micros;
    verdict_.query_p99_micros = telemetry.query_p99_micros;

    AddInvariant("no_torn_reads", verdict_.value_mismatches == 0,
                 first_mismatch_);
    AddInvariant("ranking_consistent", verdict_.rank_mismatches == 0, "");
    AddInvariant("rejections_are_resource_exhausted",
                 rejections_well_typed_, bad_rejection_);
    AddInvariant("ingest_alive", runtime.ingestor().status().ok(),
                 runtime.ingestor().status().ToString());
    AddInvariant("pinned_epoch_survived", pinned_epoch_survived_,
                 pinned_epoch_detail_);
    ShardSet& shards = runtime.shards();
    AddInvariant("reclaimed_to_single_epoch",
                 shards.max_live_epochs() == 1,
                 std::to_string(shards.max_live_epochs()) +
                     " live epochs after shutdown");
    if (shards.num_shards() > 1) {
      // Only multi-shard runs emit this invariant, so the verdicts (and
      // goldens) of every single-shard scenario are unchanged by the
      // sharding subsystem's existence.
      AddInvariant("cross_shard_epoch_consistent", shards.Consistent(),
                   std::to_string(shards.torn_pins()) +
                       " torn pins; published_t=" +
                       std::to_string(runtime.published_latest_t()));
    }

    verdict_.wall_ms = wall.ElapsedMicros() / 1e3;
    runtime_ = nullptr;
    return verdict_;
  }

 private:
  void AddInvariant(const char* name, bool held, std::string detail) {
    InvariantCheck check;
    check.name = name;
    check.held = held;
    if (!held) check.detail = std::move(detail);
    verdict_.invariants.push_back(std::move(check));
  }

  bool FaultActiveAt(ScenarioFault::Kind kind, int64_t tick) const {
    for (const ScenarioFault& fault : spec_.faults) {
      if (fault.kind == kind && tick >= fault.start_tick &&
          tick < fault.end_tick) {
        return true;
      }
    }
    return false;
  }

  /// Starts faults whose window opens at `tick`, clears those whose
  /// window closed. Transitions happen on tick boundaries only, before
  /// ingest grants and arrivals, so the fault timeline is exact.
  void ApplyFaultTransitions(int64_t tick) {
    for (const ScenarioFault& fault : spec_.faults) {
      if (fault.start_tick == tick) {
        switch (fault.kind) {
          case ScenarioFault::Kind::kStalledPublisher:
            runtime_->ingestor().Pause();
            publisher_paused_ = true;
            break;
          case ScenarioFault::Kind::kWriteRefusal:
            runtime_->shards().SetWriteFault(
                Status::IOError("injected: store refusing writes"));
            break;
          case ScenarioFault::Kind::kSlowReader:
            pinned_ = runtime_->shards().PinAll();
            break;
          case ScenarioFault::Kind::kAdmissionSaturation:
            break;  // handled per tick in the main loop
        }
      }
      if (fault.end_tick == tick) {
        switch (fault.kind) {
          case ScenarioFault::Kind::kStalledPublisher:
            runtime_->ingestor().Resume();
            publisher_paused_ = false;
            break;
          case ScenarioFault::Kind::kWriteRefusal:
            runtime_->shards().ClearWriteFault();
            break;
          case ScenarioFault::Kind::kSlowReader:
            CheckPinnedEpochThenRelease();
            break;
          case ScenarioFault::Kind::kAdmissionSaturation:
            break;
        }
      }
    }
  }

  /// The slow-reader invariant: on every shard, the layer-1 frame (and
  /// SAT plane) of the pinned generation's newest timestep must still be
  /// readable after newer epochs published and reclaimed their
  /// predecessors. A pin that served no timestep checks nothing, so it
  /// fails the invariant rather than passing it vacuously.
  void CheckPinnedEpochThenRelease() {
    if (!pinned_.pinned()) return;
    const int64_t latest = pinned_.latest_t();
    if (latest < 0) {
      pinned_epoch_survived_ = false;
      pinned_epoch_detail_ =
          "slow reader pinned an epoch serving no timestep";
    }
    ShardSet& shards = runtime_->shards();
    for (int k = 0; k < shards.num_shards() && pinned_epoch_survived_; ++k) {
      const PredictionStore& store = shards.shard(k).store;
      const int64_t generation = pinned_.generation(k);
      const std::string where = "(shard " + std::to_string(k) + ", gen " +
                                std::to_string(generation) + ", layer 1, t " +
                                std::to_string(latest) + ")";
      if (!store.HasFrameAt(generation, 1, latest)) {
        pinned_epoch_survived_ = false;
        pinned_epoch_detail_ =
            "frame " + where + " reclaimed under an active pin";
      }
    }
    pinned_.Release();
  }

  /// One publish-attempt grant per cadence tick; outside a stall the
  /// engine then waits for the attempt to finish, so by the time
  /// arrivals fire the epoch state is settled and deterministic.
  void TickIngest(int64_t tick) {
    if (tick % spec_.ingest.publish_every_ticks == 0) {
      runtime_->ingestor().GrantSteps(1);
      ++granted_;
    }
    if (!publisher_paused_) {
      runtime_->ingestor().WaitUntilAttempted(granted_);
    }
  }

  int64_t SampleRegion() {
    return world_.popularity[static_cast<size_t>(zipf_.Sample(&rng_))];
  }

  /// Queried timesteps span the run's whole eventual window: early (or
  /// stalled/refused) ticks naturally probe not-yet-published timesteps,
  /// exercising the NotFound row path; churny retention reclaims old
  /// ones, exercising it from the other side.
  int64_t SampleT() {
    return start_t_ + static_cast<int64_t>(rng_.UniformInt(
                          static_cast<uint64_t>(spec_.ingest.steps)));
  }

  double TruthFold(const GridMask& region, int64_t t0, int64_t t1) const {
    double sum = 0.0, peak = 0.0;
    for (int64_t t = t0; t <= t1; ++t) {
      const double v = RegionTruth(*world_.dataset, region, t);
      sum += v;
      peak = t == t0 ? v : std::max(peak, v);
    }
    switch (spec_.mix.aggregation) {
      case TimeAggregation::kSum: return sum;
      case TimeAggregation::kMean:
        return sum / static_cast<double>(t1 - t0 + 1);
      case TimeAggregation::kMax: return peak;
    }
    return sum;
  }

  void RecordStaleness(int64_t latest_at_issue, int64_t newest_queried_t) {
    const int64_t staleness = latest_at_issue - newest_queried_t;
    if (verdict_.staleness_min > verdict_.staleness_max) {
      verdict_.staleness_min = verdict_.staleness_max = staleness;
    } else {
      verdict_.staleness_min = std::min(verdict_.staleness_min, staleness);
      verdict_.staleness_max = std::max(verdict_.staleness_max, staleness);
    }
  }

  void RecordValue(double got, double truth) {
    if (ValuesAgree(got, truth)) return;
    ++verdict_.value_mismatches;
    if (first_mismatch_.empty()) {
      first_mismatch_ = "got " + std::to_string(got) + ", truth " +
                        std::to_string(truth);
    }
  }

  void RecordSpecFailure(QuerySpecKind kind, const Status& status) {
    ShapeOutcome& shape = verdict_.shapes[static_cast<size_t>(kind)];
    if (status.code() == StatusCode::kResourceExhausted) {
      ++shape.rejected;
    } else {
      // A spec-level error that is not an admission rejection means the
      // runtime broke its contract (specs here are always valid).
      ++shape.failed;
      rejections_well_typed_ = false;
      if (bad_rejection_.empty()) bad_rejection_ = status.ToString();
    }
  }

  /// Books a finished ExecuteSpec call: per-row outcome counts, value
  /// checks against the truth fold of [t0, t1], staleness samples, and
  /// (for top-k) ranking consistency.
  void RecordSpecResult(QuerySpecKind kind,
                        const Result<QueryResult>& result,
                        const std::vector<int64_t>& region_indices,
                        int64_t t0, int64_t t1, int64_t latest_at_issue) {
    ShapeOutcome& shape = verdict_.shapes[static_cast<size_t>(kind)];
    ++shape.issued;
    if (!result.ok()) {
      RecordSpecFailure(kind, result.status());
      return;
    }
    const QueryResult& r = result.ValueOrDie();
    std::vector<double> truths(region_indices.size(), 0.0);
    bool any_row_failed = false;
    for (size_t i = 0; i < r.rows.size() && i < region_indices.size(); ++i) {
      if (!r.rows[i].ok()) {
        ++verdict_.rows_failed;
        any_row_failed = true;
        continue;
      }
      ++verdict_.rows_ok;
      const GridMask& region =
          world_.regions[static_cast<size_t>(region_indices[i])];
      truths[i] = TruthFold(region, t0, t1);
      RecordValue(r.rows[i].ValueOrDie().value, truths[i]);
      RecordStaleness(latest_at_issue, t1);
    }
    any_row_failed ? ++shape.failed : ++shape.ok;

    // Ranking check: the returned order must be truth-descending up to
    // the value tolerance (pure ties may legally swap).
    for (size_t i = 1; i < r.top_k.size(); ++i) {
      const double prev = truths[static_cast<size_t>(r.top_k[i - 1])];
      const double next = truths[static_cast<size_t>(r.top_k[i])];
      if (prev + kValueTolerance * std::max(1.0, std::abs(next)) < next) {
        ++verdict_.rank_mismatches;
      }
    }
  }

  void IssueArrival() {
    const double u = rng_.Uniform();
    const int64_t t = SampleT();
    const int64_t latest = runtime_->published_latest_t();
    const ScenarioMix& mix = spec_.mix;
    const QueryStrategy strategy = spec_.serving.strategy;
    const int64_t window_end = start_t_ + spec_.ingest.steps - 1;

    // Cumulative-fraction dispatch over the four shapes, skipping
    // zero-weight ones entirely: a draw landing past the cumulative sum
    // through double rounding clamps to the last positive-weight shape,
    // so a shape the spec excluded can never be issued.
    const double weights[kNumQuerySpecKinds] = {
        mix.point, mix.time_range, mix.multi_region, mix.top_k};
    int pick = -1, last_positive = 0;
    double cumulative = 0.0;
    for (int s = 0; s < kNumQuerySpecKinds; ++s) {
      if (weights[s] <= 0.0) continue;
      last_positive = s;
      cumulative += weights[s];
      if (pick < 0 && u < cumulative) pick = s;
    }
    if (pick < 0) pick = last_positive;

    switch (static_cast<QuerySpecKind>(pick)) {
      case QuerySpecKind::kPointInTime: {
        const int64_t idx = SampleRegion();
        RecordSpecResult(
            QuerySpecKind::kPointInTime,
            runtime_->ExecuteSpec(QuerySpec::PointInTime(
                world_.regions[static_cast<size_t>(idx)], t, strategy)),
            {idx}, t, t, latest);
        break;
      }
      case QuerySpecKind::kTimeRange: {
        const int64_t idx = SampleRegion();
        const int64_t t1 = std::min(t + mix.range_len - 1, window_end);
        RecordSpecResult(
            QuerySpecKind::kTimeRange,
            runtime_->ExecuteSpec(QuerySpec::TimeRange(
                world_.regions[static_cast<size_t>(idx)], t, t1,
                mix.aggregation, strategy)),
            {idx}, t, t1, latest);
        break;
      }
      case QuerySpecKind::kMultiRegion: {
        std::vector<int64_t> indices(static_cast<size_t>(mix.group_size));
        std::vector<GridMask> masks;
        masks.reserve(indices.size());
        for (int64_t& idx : indices) {
          idx = SampleRegion();
          masks.push_back(world_.regions[static_cast<size_t>(idx)]);
        }
        RecordSpecResult(
            QuerySpecKind::kMultiRegion,
            runtime_->ExecuteSpec(
                QuerySpec::MultiRegion(std::move(masks), t, strategy)),
            indices, t, t, latest);
        break;
      }
      case QuerySpecKind::kTopK: {
        std::vector<int64_t> indices(static_cast<size_t>(mix.group_size));
        std::vector<GridMask> masks;
        masks.reserve(indices.size());
        for (int64_t& idx : indices) {
          idx = SampleRegion();
          masks.push_back(world_.regions[static_cast<size_t>(idx)]);
        }
        RecordSpecResult(QuerySpecKind::kTopK,
                         runtime_->ExecuteSpec(QuerySpec::TopK(
                             std::move(masks), t, static_cast<int>(mix.k),
                             strategy)),
                         indices, t, t, latest);
        break;
      }
    }
  }

  /// A deliberately over-budget probe: one region over max_inflight + 1
  /// timesteps costs max_inflight + 1 gather slots, which admission
  /// control must reject with ResourceExhausted — never serve partially,
  /// never crash.
  void IssueSaturationProbe() {
    ShapeOutcome& shape =
        verdict_.shapes[static_cast<size_t>(QuerySpecKind::kTimeRange)];
    ++shape.issued;
    auto result = runtime_->ExecuteSpec(QuerySpec::TimeRange(
        world_.regions.front(), start_t_,
        start_t_ + spec_.serving.max_inflight, spec_.mix.aggregation,
        spec_.serving.strategy));
    if (result.ok()) {
      // Admission let an over-budget spec through: contract violation.
      ++shape.ok;
      rejections_well_typed_ = false;
      if (bad_rejection_.empty()) {
        bad_rejection_ = "over-budget probe was admitted";
      }
      return;
    }
    RecordSpecFailure(QuerySpecKind::kTimeRange, result.status());
  }

  const ScenarioSpec& spec_;
  World world_;
  Rng rng_;
  ZipfSampler zipf_;
  ScenarioVerdict verdict_;

  ServingRuntime* runtime_ = nullptr;
  int64_t start_t_ = 0;
  int64_t granted_ = 0;  ///< publish attempts granted so far
  bool publisher_paused_ = false;
  ShardPinSet pinned_;  ///< the slow reader's held epochs, one per shard

  bool rejections_well_typed_ = true;
  std::string bad_rejection_;
  bool pinned_epoch_survived_ = true;
  std::string pinned_epoch_detail_;
  std::string first_mismatch_;
};

}  // namespace

Result<ScenarioVerdict> RunScenario(const ScenarioSpec& spec,
                                    std::string* metrics_exposition) {
  O4A_RETURN_NOT_OK(spec.Validate());
  O4A_ASSIGN_OR_RETURN(World world, BuildWorld(spec));
  return EngineRun(spec, std::move(world)).Run(metrics_exposition);
}

}  // namespace one4all
