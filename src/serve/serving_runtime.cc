#include "serve/serving_runtime.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "core/stopwatch.h"
#include "query/query_planner.h"
#include "shard/shard_executor.h"

namespace one4all {

namespace {

/// The publish seam between the ingestor and the real epoch substrate:
/// forwards untouched, then — only after a successful publish — hands
/// the epoch's dirty sets to the top-k memo so subscription re-ranks
/// know which footprints the epoch could have moved.
class MemoTapSink : public EpochSink {
 public:
  MemoTapSink(EpochSink* inner, TopKMemo* memo)
      : inner_(inner), memo_(memo) {}

  Status StageAndPublish(int64_t t, const std::vector<Tensor>& frames,
                         const DirtyTileSets* dirty, bool carry_forward,
                         TraceContext* trace) override {
    Status status =
        inner_->StageAndPublish(t, frames, dirty, carry_forward, trace);
    if (status.ok()) memo_->OnPublish(t, dirty);
    return status;
  }
  using EpochSink::StageAndPublish;

 private:
  EpochSink* inner_;
  TopKMemo* memo_;
};

/// The shard set's options: one shard keeps the configured resolve-
/// cache capacity; N shards partition it so turning sharding on does not
/// silently multiply the cache budget.
ShardSetOptions MakeShardSetOptions(const ServingRuntimeOptions& options,
                                    TraceRecorder* trace) {
  ShardSetOptions shard_options;
  shard_options.retain_timesteps = options.retain_timesteps;
  shard_options.build_sat_planes = options.build_sat_planes;
  shard_options.cache = options.cache;
  if (options.num_shards > 1) {
    shard_options.cache.capacity = std::max<size_t>(
        options.cache.capacity / static_cast<size_t>(options.num_shards),
        64);
  }
  shard_options.trace = trace;
  return shard_options;
}

}  // namespace

ServingRuntime::ServingRuntime(const Hierarchy* hierarchy,
                               const ExtendedQuadTree* index,
                               const STDataset* dataset,
                               FrameInference inference,
                               ServingRuntimeOptions options)
    : hierarchy_(hierarchy),
      options_(options),
      trace_(options.trace != nullptr ? options.trace
                                      : &TraceRecorder::Global()),
      topk_memo_(hierarchy),
      shards_(hierarchy, options.num_shards, &telemetry_,
              MakeShardSetOptions(options, trace_)) {
  O4A_CHECK(hierarchy != nullptr);
  O4A_CHECK(index != nullptr);
  O4A_CHECK(dataset != nullptr);
  O4A_CHECK_GT(options_.max_inflight_queries, 0);
  server_ = std::make_unique<RegionQueryServer>(hierarchy, index,
                                                &shards_.shard(0).store);
  StreamIngestorOptions ingest_options = options.ingest;
  ingest_options.trace = trace_;
  publish_tap_ = std::make_unique<MemoTapSink>(&shards_, &topk_memo_);
  ingestor_ = std::make_unique<StreamIngestor>(dataset, std::move(inference),
                                               publish_tap_.get(),
                                               &telemetry_, ingest_options);
}

ServingRuntime::~ServingRuntime() { Stop(); }

void ServingRuntime::Start() { ingestor_->Start(); }

void ServingRuntime::Stop() { ingestor_->Stop(); }

Status ServingRuntime::AdmitQueries(int64_t cost, int64_t num_queries) {
  // Admission control: claim the request's slots with a check-then-claim
  // CAS loop — a rejected request never touches the counter, so an
  // oversized one cannot transiently inflate it and spuriously reject
  // concurrent admissible requests. Refusing the whole request beats
  // buffering unboundedly under overload.
  int64_t prior = inflight_.load(std::memory_order_relaxed);
  do {
    if (prior + cost > options_.max_inflight_queries) {
      telemetry_.queries_rejected.fetch_add(num_queries,
                                            std::memory_order_relaxed);
      telemetry_.batches_rejected.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "serving overloaded: " + std::to_string(prior) +
          " gather slots in flight, request of " + std::to_string(cost) +
          " exceeds budget of " +
          std::to_string(options_.max_inflight_queries));
    }
  } while (!inflight_.compare_exchange_weak(prior, prior + cost,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
  telemetry_.batches_admitted.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ServingRuntime::ReleaseQueries(int64_t cost) {
  inflight_.fetch_sub(cost, std::memory_order_acq_rel);
}

Result<std::vector<Result<QueryResponse>>> ServingRuntime::QueryBatch(
    const std::vector<BatchQuery>& queries) {
  const int64_t n = static_cast<int64_t>(queries.size());
  TraceContext trace_ctx = trace_->StartTrace(SpanCategory::kQuery);
  ScopedSpan query_span(&trace_ctx, SpanName::kQuery, n);
  Status admitted;
  {
    ScopedSpan admission_span(&trace_ctx, SpanName::kAdmission, n);
    admitted = AdmitQueries(n, n);
  }
  O4A_RETURN_NOT_OK(admitted);
  telemetry_.CountSpec(QuerySpecKind::kPointBatch);

  Result<QueryPlan> plan = Status::Internal("not planned");
  {
    ScopedSpan plan_span(&trace_ctx, SpanName::kPlan, n);
    plan = QueryPlanner(hierarchy_).PlanBatch(queries, options_.strategy);
  }
  if (!plan.ok()) {
    ReleaseQueries(n);
    return plan.status();
  }
  QueryResult result = ExecutePinned(*plan, &trace_ctx);
  ReleaseQueries(n);
  RecordRowOutcomes(result.rows);
  std::vector<Result<QueryResponse>> responses;
  responses.reserve(result.rows.size());
  for (Result<QueryRow>& row : result.rows) {
    responses.push_back(query_internal::RowToResponse(std::move(row)));
  }
  return responses;
}

Result<QueryResponse> ServingRuntime::Query(const GridMask& region,
                                            int64_t t) {
  O4A_ASSIGN_OR_RETURN(std::vector<Result<QueryResponse>> results,
                       QueryBatch({BatchQuery{region, t}}));
  return results[0];
}

Result<QueryResult> ServingRuntime::ExecuteSpec(QuerySpec spec) {
  // Validate and admit BEFORE planning. Validation is O(regions) with no
  // allocation, so an invalid spec (the caller's bug, not overload)
  // never consumes budget — and an absurdly long time range is bounced
  // by admission before any per-plan work happens. The cost formula
  // matches QueryPlan::num_point_queries() for every spec shape: each of
  // the |regions| rows gathers the full selector range (dedup shares
  // resolutions, not gathers).
  O4A_RETURN_NOT_OK(spec.Validate(*hierarchy_));
  const int64_t num_rows = static_cast<int64_t>(spec.regions.size());
  const int64_t steps = spec.time.num_steps();
  const QuerySpecKind kind = spec.kind;
  TraceContext trace_ctx = trace_->StartTrace(SpanCategory::kQuery);
  ScopedSpan query_span(&trace_ctx, SpanName::kQuery, num_rows);

  // Incremental top-k: a point top-k re-issued at a later timestep
  // (the subscription pattern) probes the memo, which proves per row
  // whether any publish since the memoized evaluation touched its term
  // footprint. Clean rows carry their value over; only churned rows are
  // re-gathered (as a multi-region sub-spec), and the ranking is
  // re-sorted over the merged set. Single shard only for now; this is
  // the one topology test in ExecuteSpec.
  const bool memo_eligible = shards_.num_shards() == 1 &&
                             kind == QuerySpecKind::kTopK &&
                             spec.time.IsPoint();
  TopKMemo::Probe probe;
  std::vector<int> stale_rows;
  if (memo_eligible) {
    probe = topk_memo_.Lookup(spec);
    if (probe.hit) {
      for (size_t i = 0; i < probe.clean.size(); ++i) {
        if (!probe.clean[i]) stale_rows.push_back(static_cast<int>(i));
      }
    }
  }
  const int64_t eval_rows =
      probe.hit ? static_cast<int64_t>(stale_rows.size()) : num_rows;

  // Overflow-safe cost: a product that cannot fit the budget is clamped
  // to just past it — guaranteed rejection without int64 wraparound.
  // Memo-clean rows gather nothing, so they claim no slots.
  const int64_t cost =
      eval_rows > options_.max_inflight_queries / steps
          ? options_.max_inflight_queries + 1
          : eval_rows * steps;
  Status admitted;
  {
    ScopedSpan admission_span(&trace_ctx, SpanName::kAdmission, cost);
    admitted = AdmitQueries(cost, num_rows);
  }
  O4A_RETURN_NOT_OK(admitted);
  telemetry_.CountSpec(kind);

  if (probe.hit && stale_rows.empty()) {
    // Every row provably unchanged: rank the memoized values and answer
    // without touching the store at all.
    QueryResult result;
    result.kind = QuerySpecKind::kTopK;
    result.rows = std::move(probe.rows);
    {
      ScopedSpan rank_span(&trace_ctx, SpanName::kRank, spec.top_k);
      Stopwatch rank_timer;
      result.top_k = TopKMemo::RankRows(result.rows, spec.top_k);
      result.timings.rank_micros = rank_timer.ElapsedMicros();
    }
    topk_memo_.Store(spec, result.rows);  // re-anchor the entry at t
    topk_memo_.CountReuse(num_rows, 0);
    ReleaseQueries(cost);
    RecordRowOutcomes(result.rows);
    return result;
  }

  QuerySpec memo_spec;  // the original, kept for the post-exec Store
  if (memo_eligible) memo_spec = spec;
  if (probe.hit) {
    // Partial reuse: re-gather only the churned rows. A multi-region
    // sub-spec evaluates each region through the identical resolve /
    // gather / fold path, so merged values are bit-identical to a full
    // top-k execution; ranking happens after the merge.
    QuerySpec sub;
    sub.kind = QuerySpecKind::kMultiRegion;
    sub.regions.reserve(stale_rows.size());
    for (const int idx : stale_rows) {
      sub.regions.push_back(spec.regions[static_cast<size_t>(idx)]);
    }
    sub.time = spec.time;
    sub.aggregation = spec.aggregation;
    sub.strategy = spec.strategy;
    sub.eval_path = spec.eval_path;
    sub.keep_series = spec.keep_series;
    spec = std::move(sub);
  }

  QueryPlanner planner(hierarchy_);
  Result<QueryPlan> plan = Status::Internal("not planned");
  {
    ScopedSpan plan_span(&trace_ctx, SpanName::kPlan, num_rows);
    plan = planner.Plan(std::move(spec));
  }
  if (!plan.ok()) {
    ReleaseQueries(cost);
    return plan.status();
  }

  QueryResult result = ExecutePinned(*plan, &trace_ctx);
  if (probe.hit) {
    // Merge: memoized clean rows + freshly gathered churned rows, then
    // re-rank the full set with RankTopK's exact ordering.
    QueryResult merged;
    merged.kind = QuerySpecKind::kTopK;
    merged.rows = std::move(probe.rows);
    for (size_t j = 0; j < stale_rows.size(); ++j) {
      merged.rows[static_cast<size_t>(stale_rows[j])] =
          std::move(result.rows[j]);
    }
    merged.timings = result.timings;
    merged.cache_hits = result.cache_hits;
    merged.cache_misses = result.cache_misses;
    {
      ScopedSpan rank_span(&trace_ctx, SpanName::kRank, memo_spec.top_k);
      Stopwatch rank_timer;
      merged.top_k = TopKMemo::RankRows(merged.rows, memo_spec.top_k);
      merged.timings.rank_micros = rank_timer.ElapsedMicros();
    }
    topk_memo_.CountReuse(num_rows - eval_rows, eval_rows);
    result = std::move(merged);
  }
  if (memo_eligible) topk_memo_.Store(memo_spec, result.rows);
  ReleaseQueries(cost);
  RecordRowOutcomes(result.rows);
  return result;
}

QueryResult ServingRuntime::ExecutePinned(const QueryPlan& plan,
                                          TraceContext* trace) {
  // One consistency contract for every topology: the pin set holds one
  // epoch per shard, all serving the same timestep, for the whole plan,
  // so no answer (a time range included) mixes two publishes' frames.
  ScopedSpan pin_span(trace, SpanName::kEpochPin);
  const ShardPinSet pins = shards_.PinAll(trace);
  pin_span.set_arg(pins.generation(0));
  pin_span.Close();
  std::shared_lock<std::shared_mutex> server_lock(server_mu_);
  if (shards_.num_shards() == 1) {
    QueryExecutorOptions exec_options;
    exec_options.num_threads = options_.num_query_threads;
    exec_options.cache = &shards_.shard(0).cache;
    exec_options.generation = pins.generation(0);
    exec_options.trace = trace;
    return QueryExecutor(server_.get()).Execute(plan, exec_options);
  }
  ShardExecutorOptions exec_options;
  exec_options.num_threads = options_.num_query_threads;
  exec_options.trace = trace;
  return ShardExecutor(server_.get(), &shards_)
      .Execute(plan, pins, exec_options);
}

void ServingRuntime::RecordRowOutcomes(
    const std::vector<Result<QueryRow>>& rows) {
  int64_t served = 0, failed = 0;
  for (const auto& row : rows) {
    if (row.ok()) {
      ++served;
      telemetry_.query_latency.Record(row.ValueOrDie().response_micros);
    } else {
      ++failed;
    }
  }
  telemetry_.queries_served.fetch_add(served, std::memory_order_relaxed);
  telemetry_.queries_failed.fetch_add(failed, std::memory_order_relaxed);
}

void ServingRuntime::SwapIndex(const ExtendedQuadTree* index) {
  O4A_CHECK(index != nullptr);
  {
    std::unique_lock<std::shared_mutex> server_lock(server_mu_);
    server_ = std::make_unique<RegionQueryServer>(hierarchy_, index,
                                                  &shards_.shard(0).store);
  }
  // Resolutions embed index lookups, so a topology swap is the one event
  // that clears the resolve caches (epoch rolls must not — resolution is
  // time-independent). Memoized top-k values embed resolutions too.
  shards_.InvalidateCaches();
  topk_memo_.Invalidate();
}

}  // namespace one4all
