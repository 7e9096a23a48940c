// The second half of a traced run: the recorded frames and open-loop
// requests replayed on one thread through standalone layer objects — a
// PredictionStore + FrameEpochManager + RegionQueryServer + resolve cache
// + planner/executor stack, and a two-shard ShardSet beside it — with one
// span per public call. Span nesting names each call's parent; a layer's
// self time is its span minus its children.
#include <algorithm>

#include "core/logging.h"
#include "grid/decompose.h"
#include "helpers.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/resolved_query_cache.h"
#include "serve/epoch_manager.h"
#include "shard/shard_set.h"
#include "spans.h"
#include "tensor/tiled_sat.h"
#include "workload.h"

namespace e2ebench {

namespace o4 = one4all;

namespace {

constexpr int64_t kRetainTimesteps = 48;
constexpr int kReplayShards = 2;

const char* ExecuteSpanName(Shape shape) {
  switch (shape) {
    case Shape::kPoint:
      return "query.execute_point";
    case Shape::kRange:
      return "query.execute_range";
    case Shape::kMulti:
      return "query.execute_multi";
    case Shape::kTopK:
      return "query.execute_topk";
  }
  return "query.execute";
}

class LayerReplay {
 public:
  explicit LayerReplay(const ReplayInputs& in)
      : in_(in),
        hierarchy_(in.dataset->hierarchy()),
        epochs_(&store_, nullptr, EpochOptions()),
        server_(&hierarchy_, in.index, &store_),
        planner_(&hierarchy_),
        executor_(&server_),
        shards_(&hierarchy_, kReplayShards, nullptr, ShardOptions()),
        next_t_(in.start_t) {}

  void Run() {
    bool measuring = false;
    for (const ReplayRequest& r : in_.requests) {
      while (next_t_ <= r.latest) Publish(next_t_++);
      if (!r.warmup && !measuring) {
        // Warm-up requests only fill the cache; attribute from here on.
        measuring = true;
        spans_.Clear();
        cache_.ResetStats();
        resolve_misses_ = pieces_ = lookups_ = slots_ = terms_ = reads_ = 0;
      }
      Query(r);
    }
  }

  void Emit(std::vector<Metric>* out) const {
    const auto self = spans_.SelfMicrosByName();
    const auto mean = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : Mean(it->second);
    };
    const auto per = [](int64_t num, int64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    out->push_back({"index.lookup_us", mean("index.lookup"), "us"});
    out->push_back({"index.lookups_per_region", per(lookups_, resolve_misses_),
                    "count"});
    out->push_back({"grid.decompose_us", mean("grid.decompose"), "us"});
    out->push_back({"grid.pieces_per_region", per(pieces_, resolve_misses_),
                    "count"});
    out->push_back({"query.plan_us", mean("query.plan"), "us"});
    out->push_back({"query.resolve_us", mean("query.resolve"), "us"});
    const o4::ResolvedQueryCacheStats cache = cache_.Stats();
    out->push_back({"query.cache_hit_rate", cache.hit_rate(), "fraction"});
    out->push_back({"query.cache_evictions",
                    static_cast<double>(cache.evictions), "count"});
    out->push_back({"query.terms_per_row", per(terms_, slots_), "count"});
    out->push_back({"query.sat_reads_per_row", per(reads_, slots_), "count"});
    for (int s = 0; s < kNumShapes; ++s) {
      const Shape shape = static_cast<Shape>(s);
      out->push_back({std::string("query.execute_") + ShapeName(shape) + "_us",
                      mean(ExecuteSpanName(shape)), "us"});
    }
    out->push_back({"kvstore.frame_get_us", mean("kvstore.frame_get"), "us"});
    out->push_back({"tensor.diff_us", mean("tensor.diff"), "us"});
    out->push_back({"tensor.dirty_tile_frac", per(dirty_tiles_, diffed_tiles_),
                    "fraction"});
    out->push_back({"tensor.sat_build_us", mean("tensor.sat_build"), "us"});
    out->push_back(
        {"tensor.sat_build_full_us", mean("tensor.sat_build_full"), "us"});
    out->push_back({"serve.stage_ms", mean("serve.stage") / 1e3, "ms"});
    out->push_back({"serve.publish_us", mean("serve.publish"), "us"});
    out->push_back({"serve.pin_us", mean("serve.pin"), "us"});
    out->push_back({"serve.reclaim_us", mean("serve.reclaim"), "us"});
    out->push_back({"serve.live_epochs_max",
                    static_cast<double>(live_epochs_max_), "count"});
    out->push_back({"shard.pin_all_us", mean("shard.pin_all"), "us"});
    out->push_back({"shard.pin_retries",
                    static_cast<double>(shards_.pin_retries()), "count"});
    out->push_back({"shard.torn_pins",
                    static_cast<double>(shards_.torn_pins()), "count"});
    out->push_back(
        {"shard.stage_publish_ms", mean("shard.stage_publish") / 1e3, "ms"});
  }

 private:
  static o4::FrameEpochManagerOptions EpochOptions() {
    o4::FrameEpochManagerOptions options;
    options.retain_timesteps = kRetainTimesteps;
    return options;
  }
  static o4::ShardSetOptions ShardOptions() {
    o4::ShardSetOptions options;
    options.retain_timesteps = kRetainTimesteps;
    return options;
  }

  void Publish(int64_t t) {
    const std::vector<o4::Tensor>& frames = in_.frames->frames().at(t);
    SpanScope root(&spans_, "publish");
    o4::DirtyTileSets dirty;
    if (!prev_.empty()) {
      SpanScope span(&spans_, "tensor.diff");
      for (size_t l = 0; l < frames.size(); ++l) {
        dirty.push_back(o4::DiffFrames(frames[l], prev_[l]));
      }
    }
    for (const o4::TileDirtySet& d : dirty) {
      dirty_tiles_ += d.CountDirty();
      diffed_tiles_ += d.num_tiles();
    }

    // The atomic layer's plane, full and incremental, outside the store.
    const o4::TiledFrame tiled = o4::TiledFrame::FromTensor(frames[0]);
    o4::TiledSatPlane plane;
    {
      SpanScope span(&spans_, "tensor.sat_build_full");
      plane = o4::TiledSatPlane::Build(tiled);
    }
    if (!dirty.empty()) {
      SpanScope span(&spans_, "tensor.sat_build");
      o4::TiledSatPlane delta =
          o4::TiledSatPlane::BuildDelta(tiled, prev_plane_, dirty[0], nullptr);
      O4A_CHECK(!delta.empty());
    }
    prev_plane_ = std::move(plane);

    // A reader still pinned on the previous epoch, released after the
    // publish: its release is the one that reclaims.
    o4::EpochGuard reader = epochs_.Pin();
    o4::FrameEpochManager::Staging staging;
    {
      SpanScope span(&spans_, "serve.stage");
      staging = epochs_.BeginEpoch(/*carry_forward=*/true);
      for (size_t l = 0; l < frames.size(); ++l) {
        const o4::Status status = staging.TryStageFrame(
            static_cast<int>(l + 1), t, frames[l],
            dirty.empty() ? nullptr : &dirty[l]);
        O4A_CHECK(status.ok()) << status.ToString();
      }
    }
    {
      SpanScope span(&spans_, "serve.publish");
      epochs_.Publish(std::move(staging));
    }
    live_epochs_max_ = std::max(live_epochs_max_, epochs_.live_epochs());
    {
      SpanScope span(&spans_, "serve.reclaim");
      reader.Release();
    }

    {
      SpanScope span(&spans_, "shard.stage_publish");
      const o4::Status status = shards_.StageAndPublish(
          t, frames, dirty.empty() ? nullptr : &dirty, true, nullptr);
      O4A_CHECK(status.ok()) << status.ToString();
    }
    o4::ShardPinSet pins;
    {
      SpanScope span(&spans_, "shard.pin_all");
      pins = shards_.PinAll();
    }
    O4A_CHECK_EQ(pins.latest_t(), t);
    prev_ = frames;
  }

  void Query(const ReplayRequest& r) {
    const o4::EvalPath path = in_.config->path;
    SpanScope root(&spans_, "query");
    o4::QuerySpec spec = BuildSpec(r.tmpl, r.latest, *in_.universe, path);
    const int64_t t = spec.time.t1;
    o4::Result<o4::QueryPlan> plan = o4::Status::Internal("not planned");
    {
      SpanScope span(&spans_, "query.plan");
      plan = planner_.Plan(std::move(spec));
    }
    O4A_CHECK(plan.ok()) << plan.status().ToString();
    o4::EpochGuard guard;
    {
      SpanScope span(&spans_, "serve.pin");
      guard = epochs_.Pin();
    }
    for (size_t slot = 0; slot < plan->slot_regions.size(); ++slot) {
      const o4::GridMask& region = plan->RegionForSlot(static_cast<int>(slot));
      bool hit = false;
      const int64_t resolve_span = spans_.Begin("query.resolve");
      o4::Result<std::shared_ptr<const o4::ResolvedQuery>> rq =
          server_.ResolveCached(region, plan->spec.strategy, &cache_, &hit);
      spans_.End();
      O4A_CHECK(rq.ok()) << rq.status().ToString();
      ++slots_;
      terms_ += static_cast<int64_t>((*rq)->terms.size());
      reads_ += (*rq)->gather.num_reads();
      if (!hit) {
        // What the miss paid inside ResolveCached, call by call: re-run
        // after it, and counted as children of its span, so the resolve's
        // self time excludes them.
        ++resolve_misses_;
        std::vector<o4::DecomposedPiece> pieces;
        {
          SpanScope span(&spans_, "grid.decompose", resolve_span);
          pieces = o4::HierarchicalDecompose(hierarchy_, region);
        }
        pieces_ += static_cast<int64_t>(pieces.size());
        for (const o4::DecomposedPiece& piece : pieces) {
          SpanScope span(&spans_, "index.lookup", resolve_span);
          ++lookups_;
          const o4::Combination* combo =
              piece.IsMultiGrid()
                  ? in_.index->LookupMulti(o4::CombinationSearchResult::KeyFor(
                        hierarchy_, piece.grids))
                  : in_.index->LookupSingle(piece.grids[0]);
          (void)combo;
        }
      }
      for (const o4::GatherLayerNeed& need : (*rq)->gather.layers) {
        if (path == o4::EvalPath::kSatFastPath && need.needs_plane) {
          SpanScope span(&spans_, "kvstore.frame_get");
          O4A_CHECK(
              store_.GetTiledSatPlaneAt(guard.generation(), need.layer, t).ok());
        }
        if (path == o4::EvalPath::kExactCellLoop || need.needs_frame) {
          SpanScope span(&spans_, "kvstore.frame_get");
          O4A_CHECK(
              store_.GetTiledFrameAt(guard.generation(), need.layer, t).ok());
        }
      }
    }
    o4::QueryExecutorOptions options;
    options.cache = &cache_;
    options.generation = guard.generation();
    o4::QueryResult result;
    {
      SpanScope span(&spans_, ExecuteSpanName(r.tmpl.shape));
      result = executor_.Execute(*plan, options);
    }
    for (const auto& row : result.rows) {
      O4A_CHECK(row.ok()) << row.status().ToString();
    }
  }

  const ReplayInputs& in_;
  const o4::Hierarchy& hierarchy_;
  o4::PredictionStore store_;
  o4::FrameEpochManager epochs_;
  o4::RegionQueryServer server_;
  o4::ResolvedQueryCache cache_;
  o4::QueryPlanner planner_;
  o4::QueryExecutor executor_;
  o4::ShardSet shards_;
  SpanLog spans_;

  int64_t next_t_;
  std::vector<o4::Tensor> prev_;
  o4::TiledSatPlane prev_plane_;
  int64_t dirty_tiles_ = 0, diffed_tiles_ = 0;
  int64_t live_epochs_max_ = 0;
  int64_t resolve_misses_ = 0, pieces_ = 0, lookups_ = 0;
  int64_t slots_ = 0, terms_ = 0, reads_ = 0;
};

}  // namespace

void ReplayLayers(const ReplayInputs& inputs, std::vector<Metric>* out) {
  LayerReplay replay(inputs);
  replay.Run();
  replay.Emit(out);
}

}  // namespace e2ebench
