// The online serving runtime façade (paper Sec. III, grown into a real
// continuously-running service): composes the stream ingestor, the
// epoch-versioned shard set (one shard by default, N row bands when
// sharded) and the region query server behind one object. Query specs
// are admission-controlled (bounded in-flight budget, reject-with-Status
// on overload), pin every shard's epoch for their whole duration (never
// observing torn half-synced timesteps), share resolve caches that
// survive epoch rolls (resolution is time-independent), and feed a
// telemetry block of atomic counters and latency histograms.
#ifndef ONE4ALL_SERVE_SERVING_RUNTIME_H_
#define ONE4ALL_SERVE_SERVING_RUNTIME_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "query/query_executor.h"
#include "query/query_server.h"
#include "query/query_spec.h"
#include "query/topk_memo.h"
#include "serve/stream_ingestor.h"
#include "shard/shard_set.h"

namespace one4all {

struct ServingRuntimeOptions {
  /// Admission control: a spec is rejected outright (ResourceExhausted)
  /// when admitting it would push the in-flight gather count past this.
  int64_t max_inflight_queries = 4096;
  /// Must stay 1: every spec runs on its caller's thread. Kept only
  /// because the end-to-end benchmark still assigns it; deleted with the
  /// benchmark's next change.
  int num_query_threads = 1;
  /// Carry-forward retention horizon in timesteps; see
  /// FrameEpochManagerOptions::retain_timesteps. The default 0 keeps
  /// the whole served window queryable — right for bounded replays
  /// (tests, benches, demos), but per-epoch publish cost and store size
  /// then grow with uptime; continuous deployments should set a horizon
  /// sized to the timesteps their traffic actually queries.
  int64_t retain_timesteps = 0;
  /// Resolve-cache geometry. One shard keeps exactly this capacity; N > 1
  /// shards split it (capacity / N each, at least 64).
  ResolvedQueryCacheOptions cache;
  /// Spatial shard count; every count serves through one ShardSet
  /// (shard/shard_set.h). 1 (the default) is a single shard holding the
  /// whole grid. > 1 partitions the grid into that many contiguous
  /// row-band shards (shard/shard_map.h), each with its own store, epoch
  /// manager and resolve cache. One QueryExecutor serves every count: it
  /// resolves each region at its home shard and reads each term from its
  /// owner shard (exact-loop results stay bit-identical to N=1; the SAT
  /// fast path runs at N=1 only). The ingestor publishes all bands
  /// behind one epoch barrier.
  /// Clamped to the atomic grid height.
  int num_shards = 1;
  StreamIngestorOptions ingest;
  /// Span/trace sink shared by the query path, the ingestor and the
  /// epoch manager; null uses TraceRecorder::Global(). Benches inject a
  /// private recorder per phase; must outlive the runtime.
  TraceRecorder* trace = nullptr;
};

/// \brief One4All-ST online serving: streaming ingestion + epoch-
/// versioned frames + concurrent region-query specs.
class ServingRuntime {
 public:
  /// \param hierarchy,index,dataset Must outlive the runtime. `index` is
  /// the offline-built extended quad-tree (e.g. MauPipeline::index()).
  ServingRuntime(const Hierarchy* hierarchy, const ExtendedQuadTree* index,
                 const STDataset* dataset, FrameInference inference,
                 ServingRuntimeOptions options);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// \brief Starts the background ingestion loop.
  void Start();
  /// \brief Stops ingestion (joins the background thread).
  void Stop();

  /// \brief The one query entry point: plans and executes a typed
  /// QuerySpec (point / time-range / multi-region / top-k) under
  /// admission control, one cross-shard epoch pin and the shards'
  /// resolve caches. The spec's own strategy is honored (factories
  /// default to Union & Subtraction). Admission cost is the plan's total
  /// (region, t) gather count; an over-budget spec is rejected whole
  /// with ResourceExhausted, an invalid one with InvalidArgument. Row
  /// latencies and per-kind spec counts land in the telemetry block.
  /// Taken by value so callers passing temporaries move the region set
  /// straight through to the plan, no mask copies.
  Result<QueryResult> ExecuteSpec(QuerySpec spec);

  /// \brief Newest barrier-published timestep (-1: none).
  int64_t published_latest_t() const {
    return shards_.published_latest_t();
  }
  /// \brief The serving state of every topology: pins (PinAll), fault
  /// injection, live epochs, cache stats, per-shard lag and the
  /// cross-shard consistency invariant.
  ShardSet& shards() { return shards_; }

  /// \brief Swaps the quad-tree index (topology change, e.g. after a
  /// re-search). Resolutions depend on the index, so this invalidates
  /// the resolve caches — the only event that does; epoch rolls never
  /// do.
  void SwapIndex(const ExtendedQuadTree* index);

  ServingTelemetrySnapshot Telemetry() const {
    return telemetry_.Snapshot();
  }
  ServingTelemetry& telemetry() { return telemetry_; }
  /// \brief The recorder every layer of this runtime emits spans into.
  TraceRecorder& trace_recorder() { return *trace_; }
  /// \brief The incremental top-k ranking memo (subscription reuse
  /// stats, test hooks). Fed by the publish path, probed by ExecuteSpec.
  TopKMemo& topk_memo() { return topk_memo_; }
  StreamIngestor& ingestor() { return *ingestor_; }
  const ServingRuntimeOptions& options() const { return options_; }

 private:
  /// \brief Claims `cost` in-flight slots or rejects with
  /// ResourceExhausted. `num_queries` is what the rejection counters
  /// record — result rows, the same unit queries_served/failed use, so
  /// the telemetry block stays internally comparable even when a
  /// time-range row costs many gather slots. ReleaseQueries undoes an
  /// admitted claim.
  Status AdmitQueries(int64_t cost, int64_t num_queries);
  void ReleaseQueries(int64_t cost);

  /// \brief PinAll under a kEpochPin span (arg: shard 0's generation).
  ShardPinSet PinShards(TraceContext* trace);

  /// \brief Runs `plan` through QueryExecutor over every shard's store,
  /// generation in `pins` and cache, and returns the result.
  QueryResult ExecutePinned(const QueryPlan& plan, const ShardPinSet& pins,
                            TraceContext* trace);

  /// \brief Records per-row outcomes (served/failed counts + response
  /// latency) into the telemetry block.
  void RecordRowOutcomes(const std::vector<Result<QueryRow>>& rows);

  const Hierarchy* hierarchy_;
  ServingRuntimeOptions options_;
  TraceRecorder* trace_;  ///< never null (options.trace or Global())

  ServingTelemetry telemetry_;
  TopKMemo topk_memo_;
  ShardSet shards_;

  // The server is swapped whole on SwapIndex; queries hold the shared
  // side for the duration of a spec. It only resolves (decompose +
  // index); frame reads go to the shard stores under the pin set.
  mutable std::shared_mutex server_mu_;
  std::unique_ptr<RegionQueryServer> server_;

  /// The ingestor's publish seam: forwards to shards_ and feeds each
  /// published dirty set to the top-k memo.
  std::unique_ptr<EpochSink> publish_tap_;
  std::unique_ptr<StreamIngestor> ingestor_;
  std::atomic<int64_t> inflight_{0};
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_SERVING_RUNTIME_H_
