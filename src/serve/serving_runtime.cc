#include "serve/serving_runtime.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "core/stopwatch.h"
#include "query/query_planner.h"

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

 private:
  EpochSink* inner_;
  TopKMemo* memo_;
};

/// Records one end-to-end sample into `histogram` when the enclosing
/// entry point returns, whichever exit it takes.
class EndToEndTimer {
 public:
  explicit EndToEndTimer(LatencyHistogram* histogram)
      : histogram_(histogram) {}
  ~EndToEndTimer() { histogram_->Record(timer_.ElapsedMicros()); }

  EndToEndTimer(const EndToEndTimer&) = delete;
  EndToEndTimer& operator=(const EndToEndTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  Stopwatch timer_;
};

/// The shard set's options: one shard keeps the configured resolve-
/// cache capacity; N shards partition it so turning sharding on does not
/// silently multiply the cache budget.
ShardSetOptions MakeShardSetOptions(const ServingRuntimeOptions& options,
                                    TraceRecorder* trace) {
  ShardSetOptions shard_options;
  shard_options.retain_timesteps = options.retain_timesteps;
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
  O4A_CHECK_EQ(options_.num_query_threads, 1)
      << "specs run on their caller's thread";
  server_ = std::make_unique<RegionQueryServer>(hierarchy, index,
                                                &shards_.shard(0).store);
  StreamIngestorOptions ingest_options = options.ingest;
  ingest_options.trace = trace_;
  publish_tap_ = std::make_unique<MemoTapSink>(&shards_, &topk_memo_);
  ingestor_ = std::make_unique<StreamIngestor>(dataset, std::move(inference),
                                               publish_tap_.get(),
                                               &telemetry_, ingest_options);
  topk_memo_.RegisterMetrics(&telemetry_.registry());
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

Result<QueryResult> ServingRuntime::ExecuteSpec(QuerySpec spec) {
  EndToEndTimer e2e(&telemetry_.query_e2e);
  const int64_t num_rows = static_cast<int64_t>(spec.regions.size());
  const QuerySpecKind kind = spec.kind;
  TraceContext trace_ctx = trace_->StartTrace(SpanCategory::kQuery);
  ScopedSpan query_span(&trace_ctx, SpanName::kQuery, num_rows);

  // Plan BEFORE admitting. Planning validates, so an invalid spec (the
  // caller's bug, not overload) never consumes budget, and it costs
  // O(regions) whatever the time range, so an absurdly long range is
  // still bounced by admission before any per-step work. The plan's
  // fingerprints then key the memo probe and every resolve-cache probe.
  Result<QueryPlan> plan = Status::Internal("not planned");
  {
    ScopedSpan plan_span(&trace_ctx, SpanName::kPlan, num_rows);
    plan = QueryPlanner(hierarchy_).Plan(std::move(spec));
  }
  O4A_RETURN_NOT_OK(plan.status());
  const int64_t steps = plan->spec.time.num_steps();
  const int64_t t = plan->spec.time.t0;

  // One pin set for the whole spec: the memo probe below and every
  // row gathered after it read the same epochs.
  const ShardPinSet pins = PinShards(&trace_ctx);

  // Incremental top-k: a point top-k re-issued at a later timestep
  // (the subscription pattern) probes the memo, which proves per row
  // whether any publish since the memoized evaluation touched its term
  // footprint. Clean rows carry their value over; only churned rows are
  // re-gathered (the plan restricted to them), and the ranking is
  // re-sorted over the merged set. The memo proves rows unchanged, not
  // the timestep servable, so it is probed and fed only at a t the
  // pinned epochs hold: elsewhere the cold path answers (and fails).
  const bool memo_eligible = kind == QuerySpecKind::kTopK &&
                             plan->spec.time.IsPoint() &&
                             shards_.ServesTimestep(pins, t);
  TopKMemo::Key memo_key;
  TopKMemo::Probe probe;
  std::vector<int> stale_rows;
  if (memo_eligible) {
    memo_key = TopKMemo::KeyFor(*plan);
    probe = topk_memo_.Lookup(memo_key, t);
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
  // Memo-clean rows gather nothing, so they claim no slots. Each of the
  // evaluated rows gathers the full selector range (dedup shares
  // resolutions, not gathers), matching QueryPlan::num_point_queries().
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

  QueryResult result;
  if (probe.hit) {
    // Carry the clean rows over and gather only the churned ones, through
    // the same resolve / gather / fold path, so merged values are
    // bit-identical to a full top-k execution; then rank the merged set
    // with RankTopK's exact ordering. With nothing churned the store is
    // never touched.
    if (!stale_rows.empty()) {
      plan->KeepRows(stale_rows);
      plan->spec.kind = QuerySpecKind::kMultiRegion;  // rank after merge
      result = ExecutePinned(*plan, pins, &trace_ctx);
    }
    std::vector<Result<QueryRow>> fresh = std::move(result.rows);
    result.kind = QuerySpecKind::kTopK;
    result.rows = std::move(probe.rows);
    for (size_t j = 0; j < stale_rows.size(); ++j) {
      result.rows[static_cast<size_t>(stale_rows[j])] = std::move(fresh[j]);
    }
    ScopedSpan rank_span(&trace_ctx, SpanName::kRank, plan->spec.top_k);
    result.top_k = TopKMemo::RankRows(result.rows, plan->spec.top_k);
    topk_memo_.CountReuse(num_rows - eval_rows, eval_rows);
  } else {
    result = ExecutePinned(*plan, pins, &trace_ctx);
  }
  if (memo_eligible) {
    topk_memo_.Store(std::move(memo_key), t, plan->spec.regions,
                     result.rows);
  }
  ReleaseQueries(cost);
  RecordRowOutcomes(result.rows);
  return result;
}

ShardPinSet ServingRuntime::PinShards(TraceContext* trace) {
  // One consistency contract for every topology: the pin set holds one
  // epoch per shard, all serving the same timestep, for the whole plan,
  // so no answer (a time range included) mixes two publishes' frames.
  ScopedSpan pin_span(trace, SpanName::kEpochPin);
  ShardPinSet pins = shards_.PinAll();
  pin_span.set_arg(pins.generation(0));
  return pins;
}

QueryResult ServingRuntime::ExecutePinned(const QueryPlan& plan,
                                          const ShardPinSet& pins,
                                          TraceContext* trace) {
  QueryExecutorOptions exec_options;
  exec_options.trace = trace;
  exec_options.shard_map = &shards_.map();
  exec_options.shards.reserve(static_cast<size_t>(shards_.num_shards()));
  for (int k = 0; k < shards_.num_shards(); ++k) {
    Shard& shard = shards_.shard(k);
    exec_options.shards.push_back(ShardReadView{
        &shard.store, pins.generation(k), &shard.cache,
        &shard.gather_reads});
  }
  std::shared_lock<std::shared_mutex> server_lock(server_mu_);
  return QueryExecutor(server_.get()).Execute(plan, exec_options);
}

void ServingRuntime::RecordRowOutcomes(
    const std::vector<Result<QueryRow>>& rows) {
  int64_t served = 0, failed = 0;
  for (const auto& row : rows) ++(row.ok() ? served : failed);
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
