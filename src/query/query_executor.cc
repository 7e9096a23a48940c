#include "query/query_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/stopwatch.h"
#include "obs/metrics.h"
#include "query/frame_memo.h"
#include "query/resolved_query_cache.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "tensor/tiled_sat.h"

namespace one4all {

namespace query_internal {

double FoldSeries(const std::vector<double>& series, TimeAggregation agg) {
  switch (agg) {
    case TimeAggregation::kSum:
    case TimeAggregation::kMean: {
      double acc = 0.0;
      for (const double v : series) acc += v;
      if (agg == TimeAggregation::kMean) {
        acc /= static_cast<double>(series.size());
      }
      return acc;
    }
    case TimeAggregation::kMax: {
      double best = series.front();
      for (const double v : series) best = std::max(best, v);
      return best;
    }
  }
  return 0.0;
}

QueryRow MakeQueryRow(const std::vector<double>& series, TimeAggregation agg,
                      bool keep_series, const ResolvedQuery& rq,
                      bool cache_hit, double probe_micros,
                      double eval_micros, TraceContext* trace) {
  QueryRow row;
  {
    ScopedSpan fold_span(trace, SpanName::kFold,
                         static_cast<int64_t>(series.size()));
    row.value = FoldSeries(series, agg);
  }
  if (keep_series) row.series = series;
  row.num_pieces = rq.num_pieces;
  row.num_terms = static_cast<int>(rq.terms.size());
  row.from_cache = cache_hit;
  row.eval_micros = eval_micros;
  if (cache_hit) {
    // Decompose + index were skipped; report the actual resolve-path
    // latency (the cache lookup).
    row.response_micros = probe_micros;
  } else {
    row.decompose_micros = rq.decompose_micros;
    row.index_micros = rq.index_micros;
    row.response_micros = rq.decompose_micros + rq.index_micros;
  }
  return row;
}

void RankTopK(const QueryPlan& plan, TraceContext* trace,
              QueryResult* result) {
  if (plan.spec.kind != QuerySpecKind::kTopK) return;
  ScopedSpan rank_span(trace, SpanName::kRank, plan.spec.top_k);
  Stopwatch stage_timer;
  std::vector<int> order;
  order.reserve(result->rows.size());
  for (size_t i = 0; i < result->rows.size(); ++i) {
    if (result->rows[i].ok()) order.push_back(static_cast<int>(i));
  }
  const size_t k = std::min(order.size(),
                            static_cast<size_t>(plan.spec.top_k));
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(k),
                    order.end(), [&](int a, int b) {
                      const double va =
                          result->rows[static_cast<size_t>(a)]->value;
                      const double vb =
                          result->rows[static_cast<size_t>(b)]->value;
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(k);
  result->top_k = std::move(order);
  result->timings.rank_micros = stage_timer.ElapsedMicros();
}

}  // namespace query_internal

namespace {

/// \brief Outcome of the resolve stage for one distinct region.
struct SlotResolution {
  Result<std::shared_ptr<const ResolvedQuery>> resolved =
      Status::Internal("slot not resolved");
  bool cached = false;  ///< a resolve cache was probed
  bool cache_hit = false;
  double probe_micros = 0.0;
};

QueryRow MakeRow(const std::vector<double>& series, TimeAggregation agg,
                 bool keep_series, const ResolvedQuery& rq,
                 const SlotResolution& slot, double eval_micros,
                 TraceContext* trace) {
  return query_internal::MakeQueryRow(series, agg, keep_series, rq,
                                      slot.cache_hit, slot.probe_micros,
                                      eval_micros, trace);
}

// -- SAT fast path ----------------------------------------------------------

/// \brief One (layer, t) the fast path needs, with whatever was pinned
/// for it. Frames and planes are pinned once per plan, then read in
/// place by every row. The hot row loop reads raw pointers hoisted at
/// fetch time — no Result<> unwrapping per rect/residue read.
struct FrameTableEntry {
  int layer = 0;
  int64_t t = 0;
  bool need_frame = false;
  bool need_plane = false;
  /// The pinned frame's tile table (TiledFrame::tiles()): residues read
  /// tiles[tile][in_tile]. Null when the frame is missing; `error` says
  /// why.
  const float* const* tiles = nullptr;
  /// The tiled frame and summed-area plane, shared straight out of the
  /// store (an O(1) refcount bump, no cell copy). The pins keep both
  /// alive past any reclamation of their generation. A null plane: not
  /// published for this generation — rect reads then fall back to
  /// direct sums over `frame`.
  std::shared_ptr<const TiledFrame> frame;
  std::shared_ptr<const TiledSatPlane> plane;
  Status error;  ///< frame fetch failure (typically NotFound)
};

bool EntryKeyLess(const FrameTableEntry& e, std::pair<int, int64_t> key) {
  if (e.layer != key.first) return e.layer < key.first;
  return e.t < key.second;
}

const FrameTableEntry* FindEntry(const std::vector<FrameTableEntry>& table,
                                 int layer, int64_t t) {
  auto it = std::lower_bound(table.begin(), table.end(),
                             std::make_pair(layer, t), EntryKeyLess);
  O4A_DCHECK(it != table.end() && it->layer == layer && it->t == t);
  return &*it;
}

/// \brief Fallback rect sum when a generation carries no plane for this
/// (layer, t): sum the frame directly, row by row in ascending (r, c)
/// order, walking each row's span tile by tile. Still O(area), but
/// contiguous within a tile and without per-cell term bookkeeping.
double RectSumOnFrame(const TiledFrame& frame, const SatRectRead& rect) {
  double acc = 0.0;
  for (int64_t r = rect.r0; r < rect.r1; ++r) {
    const int64_t i = r / kSatTileSize;
    const int64_t r_in = r - i * kSatTileSize;
    for (int64_t c = rect.c0; c < rect.c1;) {
      const int64_t j = c / kSatTileSize;
      const int64_t tw = frame.tile_cols(j);
      const int64_t c_end = std::min(rect.c1, j * kSatTileSize + tw);
      const float* row = frame.block(i, j) + r_in * tw;
      const int64_t c_base = j * kSatTileSize;
      for (; c < c_end; ++c) acc += static_cast<double>(row[c - c_base]);
    }
  }
  return acc;
}

/// \brief Above this many (row, timestep) gather points the fast path's
/// upfront frame-table prefetch could materialize an unreasonable table
/// before any per-row NotFound gets the chance to surface; such plans
/// (far past serving admission budgets) take the exact path instead.
constexpr int64_t kMaxFastPathGathers = int64_t{1} << 20;

/// \brief Stage 1: probes each distinct region's home-shard cache,
/// resolving (decompose + index) on a miss.
std::vector<SlotResolution> ResolveSlots(
    const RegionQueryServer& server, const QueryPlan& plan,
    const std::vector<ShardReadView>& shards, const ShardMap* bands,
    TraceContext* trace) {
  std::vector<SlotResolution> slots(plan.slot_regions.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    SlotResolution& slot = slots[s];
    const GridMask& region = plan.RegionForSlot(static_cast<int>(s));
    const int home =
        bands == nullptr ? 0 : ShardRouter(bands).HomeShard(region);
    ResolvedQueryCache* cache = shards[static_cast<size_t>(home)].cache;
    slot.cached = cache != nullptr;
    ScopedSpan probe_span(trace, SpanName::kCacheProbe);
    Stopwatch probe;
    slot.resolved =
        server.ResolveCached(region, plan.spec.strategy,
                             plan.slot_fingerprints[s], cache,
                             &slot.cache_hit);
    // Captured before evaluation so a hit reports only the resolve-path
    // latency, comparable to decompose+index.
    slot.probe_micros = probe.ElapsedMicros();
    probe_span.set_arg(slot.cache_hit ? 1 : 0);
  }
  return slots;
}

/// \brief Stage 2 on the SAT fast path, over one shard holding the whole
/// grid: fills `rows` from the plan's compiled gather programs.
void GatherSatFastPath(const QueryPlan& plan,
                       const std::vector<SlotResolution>& slots,
                       const ShardReadView& shard, bool keep_series,
                       TraceContext* trace,
                       std::vector<Result<QueryRow>>* rows) {
  // Fast path, phase 1: collect every (layer, t) the plan touches and
  // fetch frames/planes for them once; phase 2's rows only read the
  // table.
  // Layer needs dedup per slot first (rows sharing a resolution share
  // its layer set), then expand over timesteps into lightweight keys.
  struct LayerNeedKey {
    int layer = 0;
    bool need_frame = false;
    bool need_plane = false;
  };
  std::vector<LayerNeedKey> layer_needs;
  std::vector<char> slot_seen(slots.size(), 0);
  int64_t t_min = 0, t_max = -1;
  for (const PlanRow& planned : plan.rows) {
    const size_t s = static_cast<size_t>(planned.region_slot);
    if (!slots[s].resolved.ok()) continue;
    if (t_max < t_min) {
      t_min = planned.t0;
      t_max = planned.t1;
    } else {
      t_min = std::min(t_min, planned.t0);
      t_max = std::max(t_max, planned.t1);
    }
    if (slot_seen[s]) continue;
    slot_seen[s] = 1;
    for (const GatherLayerNeed& need : (**slots[s].resolved).gather.layers) {
      layer_needs.push_back(
          LayerNeedKey{need.layer, need.needs_frame, need.needs_plane});
    }
  }
  std::sort(layer_needs.begin(), layer_needs.end(),
            [](const LayerNeedKey& a, const LayerNeedKey& b) {
              return a.layer < b.layer;
            });
  size_t kept = 0;
  for (size_t i = 0; i < layer_needs.size(); ++i) {
    if (kept > 0 && layer_needs[kept - 1].layer == layer_needs[i].layer) {
      layer_needs[kept - 1].need_frame |= layer_needs[i].need_frame;
      layer_needs[kept - 1].need_plane |= layer_needs[i].need_plane;
    } else {
      layer_needs[kept++] = layer_needs[i];
    }
  }
  layer_needs.resize(kept);

  // Every spec-shape row shares the plan's time selector, so the table
  // is the dense (distinct layers) x [t_min, t_max] grid — which is
  // what lets phase 2 index a layer's entries by timestep offset.
  std::vector<FrameTableEntry> table;
  table.resize(layer_needs.size() *
               static_cast<size_t>(t_max - t_min + 1));
  {
    size_t i = 0;
    for (const LayerNeedKey& need : layer_needs) {
      for (int64_t t = t_min; t <= t_max; ++t, ++i) {
        table[i].layer = need.layer;
        table[i].t = t;
        table[i].need_frame = need.need_frame;
        table[i].need_plane = need.need_plane;
      }
    }
  }

  const PredictionStore* store = shard.store;
  const int64_t generation = shard.generation;
  for (FrameTableEntry& entry : table) {
    if (entry.need_plane) {
      Result<std::shared_ptr<const TiledSatPlane>> plane =
          store->GetTiledSatPlaneAt(generation, entry.layer, entry.t);
      if (plane.ok()) {
        entry.plane = plane.MoveValueUnsafe();
      } else if (plane.status().code() == StatusCode::kNotFound) {
        // No plane stored for this (layer, t): a store synced without
        // planes, as a direct RegionQueryServer user may hand in. Rect
        // reads degrade to direct frame sums instead of failing the row.
        entry.need_frame = true;
      } else {
        // Anything else (corrupt blob, size mismatch) is a store
        // defect: fail the rows loudly rather than silently eating the
        // fast path's speedup forever.
        entry.error = plane.status();
        continue;
      }
    }
    if (entry.need_frame) {
      Result<std::shared_ptr<const TiledFrame>> frame =
          store->GetTiledFrameAt(generation, entry.layer, entry.t);
      if (frame.ok()) {
        entry.frame = frame.MoveValueUnsafe();
        entry.tiles = entry.frame->tiles();
      } else {
        entry.error = frame.status();
      }
    }
  }

  // Phase 2: per-row interpretation of the compiled gather programs.
  std::vector<double> series;
  std::vector<const FrameTableEntry*> layer_bases;
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    const PlanRow& planned = plan.rows[i];
    const SlotResolution& slot =
        slots[static_cast<size_t>(planned.region_slot)];
    if (!slot.resolved.ok()) {
      (*rows)[i] = slot.resolved.status();
      continue;
    }
    const ResolvedQuery& rq = **slot.resolved;
    const GatherProgram& program = rq.gather;
    const int64_t steps = planned.num_steps();
    // One binary search per (row, layer): a layer's entries for the
    // row's [t0, t1] are table-contiguous (every row of a spec plan
    // shares the spec's time selector), so the t loops below just
    // offset from the base.
    layer_bases.assign(program.layers.size(), nullptr);
    for (size_t li = 0; li < program.layers.size(); ++li) {
      layer_bases[li] =
          FindEntry(table, program.layers[li].layer, planned.t0);
      // Contiguity check: the last step of the row's range must sit
      // exactly num_steps-1 entries after the base.
      O4A_DCHECK((layer_bases[li] + (steps - 1))->layer ==
                     program.layers[li].layer &&
                 (layer_bases[li] + (steps - 1))->t == planned.t1);
    }
    Stopwatch eval_timer;
    // Availability first: the row fails with the error of its first
    // timestep holding an unreadable entry and, within it, of the
    // first read in program order — rects (layer-ascending), then
    // residues (layer-ascending).
    Status gather = Status::OK();
    for (int64_t dt = 0; dt < steps && gather.ok(); ++dt) {
      for (size_t li = 0; li < program.layers.size() && gather.ok();
           ++li) {
        const FrameTableEntry* entry = layer_bases[li] + dt;
        if (program.layers[li].needs_plane && entry->plane == nullptr &&
            entry->tiles == nullptr) {
          gather = entry->error;
        }
      }
      for (size_t li = 0; li < program.layers.size() && gather.ok();
           ++li) {
        const FrameTableEntry* entry = layer_bases[li] + dt;
        if (program.layers[li].needs_frame && entry->tiles == nullptr) {
          gather = entry->error;
        }
      }
    }
    if (!gather.ok()) {
      (*rows)[i] = std::move(gather);
      continue;
    }
    // Read-outer, timestep-inner into per-step accumulators: each
    // read's coordinates stay hot across the range, and every step
    // still adds the same reads in the same order (rects, then
    // residues) as a step-at-a-time sweep would.
    series.assign(static_cast<size_t>(steps), 0.0);
    double* acc = series.data();
    for (const SatRectRead& rect : program.rects) {
      const FrameTableEntry* entry =
          layer_bases[static_cast<size_t>(rect.layer_index)];
      const double sign = static_cast<double>(rect.sign);
      for (int64_t dt = 0; dt < steps; ++dt, ++entry) {
        acc[dt] += sign * (entry->plane != nullptr
                               ? entry->plane->RectSum(rect.r0, rect.c0,
                                                       rect.r1, rect.c1)
                               : RectSumOnFrame(*entry->frame, rect));
      }
    }
    for (const ResidueRead& residue : program.residues) {
      const FrameTableEntry* entry =
          layer_bases[static_cast<size_t>(residue.layer_index)];
      const double sign = static_cast<double>(residue.sign);
      for (int64_t dt = 0; dt < steps; ++dt, ++entry) {
        acc[dt] += sign * static_cast<double>(
                              entry->tiles[residue.tile][residue.in_tile]);
      }
    }
    const double eval_micros = eval_timer.ElapsedMicros();
    (*rows)[i] = MakeRow(series, plan.spec.aggregation, keep_series, rq,
                         slot, eval_micros, trace);
  }
}

/// \brief Stage 2 on the exact cell loop, at any shard count: fills
/// `rows` with each row's canonical term fold. At N > 1 each term reads
/// its cell from the band frame of the shard that owns it
/// (ShardMap::OwnerOf, at its band-local row); at N=1 from shard 0 at its
/// grid row. Either way the fold is FrameMemo's canonical left-to-right
/// sum, so answers — and the term and timestep a failing row reports —
/// are bit-identical across N.
void GatherExactCellLoop(const QueryPlan& plan,
                         const std::vector<SlotResolution>& slots,
                         const std::vector<ShardReadView>& shards,
                         const ShardMap* bands, bool keep_series,
                         TraceContext* trace,
                         std::vector<Result<QueryRow>>* rows) {
  query_internal::FrameMemo memo(shards);
  std::vector<query_internal::TermAddress> addresses;
  std::vector<int64_t> term_reads(shards.size(), 0);
  std::vector<double> series;
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    const PlanRow& planned = plan.rows[i];
    const SlotResolution& slot =
        slots[static_cast<size_t>(planned.region_slot)];
    if (!slot.resolved.ok()) {
      (*rows)[i] = slot.resolved.status();
      continue;
    }
    const ResolvedQuery& rq = **slot.resolved;
    if (bands != nullptr) {
      // Addressed once per row, read at every timestep.
      addresses.resize(rq.terms.size());
      for (size_t ti = 0; ti < rq.terms.size(); ++ti) {
        const GridId& grid = rq.terms[ti].grid;
        const int owner = bands->OwnerOf(grid);
        addresses[ti] = {owner, bands->LocalRow(owner, grid)};
      }
    }
    series.clear();
    // Clamped reserve: a hint only, so a huge (likely mistaken) range
    // cannot bad_alloc here before the first gather gets the chance to
    // fail with a per-row NotFound.
    series.reserve(
        static_cast<size_t>(std::min<int64_t>(planned.num_steps(), 4096)));
    Stopwatch eval_timer;
    Status gather = Status::OK();
    for (int64_t t = planned.t0; t <= planned.t1; ++t) {
      double value = 0.0;
      gather = bands == nullptr
                   ? memo.Evaluate(rq.terms, t, &value)
                   : memo.Evaluate(rq.terms, addresses, t, &value);
      if (!gather.ok()) break;
      series.push_back(value);
    }
    const double eval_micros = eval_timer.ElapsedMicros();
    // Count the reads behind every answered timestep, per owner.
    const int64_t answered = static_cast<int64_t>(series.size());
    if (bands == nullptr) {
      term_reads[0] += static_cast<int64_t>(rq.terms.size()) * answered;
    } else {
      for (const query_internal::TermAddress& at : addresses) {
        term_reads[static_cast<size_t>(at.shard)] += answered;
      }
    }
    if (!gather.ok()) {
      (*rows)[i] = std::move(gather);
      continue;
    }
    (*rows)[i] = MakeRow(series, plan.spec.aggregation, keep_series, rq,
                         slot, eval_micros, trace);
  }
  for (size_t k = 0; k < shards.size(); ++k) {
    Counter* counter = shards[k].terms_evaluated;
    if (counter != nullptr && term_reads[k] > 0) {
      counter->fetch_add(term_reads[k]);
    }
  }
}

using query_internal::RankTopK;

}  // namespace

QueryExecutor::QueryExecutor(const RegionQueryServer* server)
    : server_(server) {
  O4A_CHECK(server != nullptr);
}

QueryResult QueryExecutor::Execute(const QueryPlan& plan,
                                   const QueryExecutorOptions& options) const {
  Stopwatch total_timer;
  QueryResult result;
  result.kind = plan.spec.kind;
  result.timings.plan_micros = plan.plan_micros;
  result.rows.assign(plan.rows.size(),
                     Status::Internal("row not evaluated"));

  // One read view per shard: the caller's pinned band shards, or the
  // server's own store for one-store callers. Band geometry is consulted
  // only when there are bands to route between.
  std::vector<ShardReadView> own_store;
  if (options.shards.empty()) {
    own_store.push_back(ShardReadView{server_->store(), options.generation,
                                      options.cache, nullptr});
  }
  const std::vector<ShardReadView>& shards =
      options.shards.empty() ? own_store : options.shards;
  const int num_shards = static_cast<int>(shards.size());
  const ShardMap* bands = num_shards > 1 ? options.shard_map : nullptr;
  O4A_CHECK(num_shards == 1 ||
            (bands != nullptr && bands->num_shards() == num_shards));

  // -- Stage 1: cache-probe / resolve each distinct region ---------------
  // Each region resolves through its home shard's cache.
  Stopwatch stage_timer;
  std::vector<SlotResolution> slots;
  {
    ScopedSpan resolve_span(options.trace, SpanName::kResolve,
                            static_cast<int64_t>(plan.slot_regions.size()));
    slots = ResolveSlots(*server_, plan, shards, bands, options.trace);
  }
  result.timings.resolve_micros = stage_timer.ElapsedMicros();
  for (const SlotResolution& slot : slots) {
    if (!slot.resolved.ok() || !slot.cached) continue;
    if (slot.cache_hit) {
      ++result.cache_hits;
    } else {
      ++result.cache_misses;
    }
  }

  // -- Stage 2: epoch-pinned frame gather + aggregation fold -------------
  stage_timer.Restart();
  const bool keep_series =
      plan.spec.keep_series && !plan.spec.time.IsPoint();
  {
    ScopedSpan gather_span(options.trace, SpanName::kGather,
                           plan.num_point_queries());
    // The SAT fast path reads whole-grid summed-area planes, so it runs
    // on one shard only; band shards' band-clipped planes have no reader
    // yet. At N > 1 a kSatFastPath plan runs the exact loop, which gives
    // the same bits: every sum over stored cells is exact.
    if (plan.path == EvalPath::kSatFastPath && num_shards == 1 &&
        plan.num_point_queries() <= kMaxFastPathGathers) {
      GatherSatFastPath(plan, slots, shards[0], keep_series, options.trace,
                        &result.rows);
    } else {
      GatherExactCellLoop(plan, slots, shards, bands, keep_series,
                          options.trace, &result.rows);
    }
  }
  result.timings.eval_micros = stage_timer.ElapsedMicros();
  RankTopK(plan, options.trace, &result);
  result.timings.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace one4all
