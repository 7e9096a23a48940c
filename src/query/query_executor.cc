#include "query/query_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/stopwatch.h"
#include "query/frame_memo.h"
#include "query/resolved_query_cache.h"
#include "tensor/prefix_sum.h"
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

Result<QueryResponse> RowToResponse(Result<QueryRow>&& row) {
  if (!row.ok()) return row.status();
  QueryRow& r = *row;
  QueryResponse response;
  response.value = r.value;
  response.num_pieces = r.num_pieces;
  response.num_terms = r.num_terms;
  response.decompose_micros = r.decompose_micros;
  response.index_micros = r.index_micros;
  response.eval_micros = r.eval_micros;
  response.response_micros = r.response_micros;
  response.from_cache = r.from_cache;
  return response;
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

/// \brief One (layer, t) the fast path needs, with whatever was fetched
/// for it. Frames and planes are fetched once per *plan* (the exact path
/// re-fetches per worker chunk), then read concurrently by every row.
/// The hot row loop reads raw pointers hoisted at fetch time — no
/// Result<> unwrapping per rect/residue read.
struct FrameTableEntry {
  int layer = 0;
  int64_t t = 0;
  bool need_frame = false;
  bool need_plane = false;
  /// Raw frame cells (null when the frame is missing; `error` says why).
  const float* frame_data = nullptr;
  int64_t frame_width = 0;
  /// The tiled summed-area plane, shared straight out of the store
  /// (an O(1) refcount bump, not a blob decode — the epoch pin keeps it
  /// alive). Null: not published for this generation — rect reads then
  /// fall back to direct sums over `frame_data`.
  std::shared_ptr<const TiledSatPlane> plane;
  Status error;  ///< frame fetch failure (typically NotFound)

  Tensor frame_storage;  ///< owns frame_data
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
/// (layer, t): sum the frame rows directly. Still O(area), but contiguous
/// and without per-cell term bookkeeping.
double RectSumOnFrame(const float* data, int64_t width,
                      const SatRectRead& rect) {
  double acc = 0.0;
  for (int64_t r = rect.r0; r < rect.r1; ++r) {
    const float* row = data + r * width;
    for (int64_t c = rect.c0; c < rect.c1; ++c) {
      acc += static_cast<double>(row[c]);
    }
  }
  return acc;
}

/// \brief Above this many (row, timestep) gather points the fast path's
/// upfront frame-table prefetch could materialize an unreasonable table
/// before any per-row NotFound gets the chance to surface; such plans
/// (far past serving admission budgets) take the exact path instead.
constexpr int64_t kMaxFastPathGathers = int64_t{1} << 20;

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

  // -- Stage 1: cache-probe / resolve each distinct region ---------------
  Stopwatch stage_timer;
  std::vector<SlotResolution> slots(plan.slot_regions.size());
  {
    ScopedSpan resolve_span(options.trace, SpanName::kResolve,
                            static_cast<int64_t>(slots.size()));
    query_internal::RunSharded(
        options.pool, options.num_threads,
        static_cast<int64_t>(slots.size()),
        [&](int64_t begin, int64_t end) {
          // Each shard spans against its own copy of the trace context:
          // ScopedSpan mutates parent_span, which must stay thread-local.
          TraceContext shard_trace;
          if (options.trace != nullptr) shard_trace = *options.trace;
          for (int64_t s = begin; s < end; ++s) {
            SlotResolution& slot = slots[static_cast<size_t>(s)];
            const GridMask& region =
                plan.RegionForSlot(static_cast<int>(s));
            ScopedSpan probe_span(&shard_trace, SpanName::kCacheProbe);
            Stopwatch probe;
            slot.resolved = server_->ResolveCached(
                region, plan.spec.strategy, options.cache,
                &slot.cache_hit);
            // Captured before evaluation so a hit reports only the
            // resolve-path latency, comparable to decompose+index.
            slot.probe_micros = probe.ElapsedMicros();
            probe_span.set_arg(slot.cache_hit ? 1 : 0);
          }
        });
  }
  result.timings.resolve_micros = stage_timer.ElapsedMicros();
  if (options.cache != nullptr) {
    for (const SlotResolution& slot : slots) {
      if (!slot.resolved.ok()) continue;
      if (slot.cache_hit) {
        ++result.cache_hits;
      } else {
        ++result.cache_misses;
      }
    }
  }

  // -- Stage 2: epoch-pinned frame gather + aggregation fold -------------
  stage_timer.Restart();
  const bool keep_series =
      plan.spec.keep_series && !plan.spec.time.IsPoint();

  if (plan.path == EvalPath::kSatFastPath &&
      plan.num_point_queries() <= kMaxFastPathGathers) {
    ScopedSpan gather_span(options.trace, SpanName::kGather,
                           plan.num_point_queries());
    // Fast path, phase 1: collect every (layer, t) the plan touches and
    // fetch frames/planes for them once, in parallel. Rows only read the
    // table afterwards, so no synchronization is needed in phase 2.
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

    const PredictionStore* store = server_->store();
    query_internal::RunSharded(
        options.pool, options.num_threads,
        static_cast<int64_t>(table.size()),
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            FrameTableEntry& entry = table[static_cast<size_t>(i)];
            if (entry.need_plane) {
              Result<std::shared_ptr<const TiledSatPlane>> plane =
                  store->GetTiledSatPlaneAt(options.generation, entry.layer,
                                            entry.t);
              if (plane.ok()) {
                entry.plane = plane.MoveValueUnsafe();
              } else if (plane.status().code() == StatusCode::kNotFound) {
                // No plane published for this generation (e.g. the
                // static offline generation before BuildSatPlanes):
                // rect reads degrade to direct frame sums instead of
                // failing the row.
                entry.need_frame = true;
              } else {
                // Anything else (corrupt blob, size mismatch) is a
                // store defect: fail the rows loudly rather than
                // silently eating the fast path's speedup forever.
                entry.error = plane.status();
                continue;
              }
            }
            if (entry.need_frame) {
              Result<Tensor> frame = store->GetFrameAt(
                  options.generation, entry.layer, entry.t);
              if (frame.ok()) {
                entry.frame_storage = frame.MoveValueUnsafe();
                entry.frame_data = entry.frame_storage.data();
                entry.frame_width = entry.frame_storage.dim(1);
              } else {
                entry.error = frame.status();
              }
            }
          }
        });

    // Phase 2: per-row interpretation of the compiled gather programs.
    query_internal::RunSharded(
        options.pool, options.num_threads,
        static_cast<int64_t>(plan.rows.size()),
        [&](int64_t begin, int64_t end) {
          TraceContext shard_trace;
          if (options.trace != nullptr) shard_trace = *options.trace;
          std::vector<double> series;
          std::vector<const FrameTableEntry*> layer_bases;
          for (int64_t i = begin; i < end; ++i) {
            const PlanRow& planned = plan.rows[static_cast<size_t>(i)];
            const SlotResolution& slot =
                slots[static_cast<size_t>(planned.region_slot)];
            if (!slot.resolved.ok()) {
              result.rows[static_cast<size_t>(i)] = slot.resolved.status();
              continue;
            }
            const ResolvedQuery& rq = **slot.resolved;
            const GatherProgram& program = rq.gather;
            series.clear();
            series.reserve(static_cast<size_t>(
                std::min<int64_t>(planned.num_steps(), 4096)));
            // One binary search per (row, layer): a layer's entries for
            // the row's [t0, t1] are table-contiguous (every row of a
            // spec plan shares the spec's time selector), so the t loop
            // below just offsets from the base.
            layer_bases.assign(program.layers.size(), nullptr);
            for (size_t li = 0; li < program.layers.size(); ++li) {
              layer_bases[li] =
                  FindEntry(table, program.layers[li].layer, planned.t0);
              // Contiguity check: the last step of the row's range must
              // sit exactly num_steps-1 entries after the base.
              O4A_DCHECK(
                  (layer_bases[li] + (planned.t1 - planned.t0))->layer ==
                      program.layers[li].layer &&
                  (layer_bases[li] + (planned.t1 - planned.t0))->t ==
                      planned.t1);
            }
            Stopwatch eval_timer;
            Status gather = Status::OK();
            for (int64_t t = planned.t0; t <= planned.t1; ++t) {
              const int64_t dt = t - planned.t0;
              double acc = 0.0;
              for (const SatRectRead& rect : program.rects) {
                const FrameTableEntry* entry =
                    layer_bases[static_cast<size_t>(rect.layer_index)] +
                    dt;
                if (entry->plane != nullptr) {
                  acc += static_cast<double>(rect.sign) *
                         entry->plane->RectSum(rect.r0, rect.c0, rect.r1,
                                               rect.c1);
                } else if (entry->frame_data != nullptr) {
                  acc += static_cast<double>(rect.sign) *
                         RectSumOnFrame(entry->frame_data,
                                        entry->frame_width, rect);
                } else {
                  gather = entry->error;
                  break;
                }
              }
              if (!gather.ok()) break;
              for (const ResidueRead& residue : program.residues) {
                const FrameTableEntry* entry =
                    layer_bases[static_cast<size_t>(
                        residue.layer_index)] +
                    dt;
                if (entry->frame_data == nullptr) {
                  gather = entry->error;
                  break;
                }
                acc += static_cast<double>(residue.sign) *
                       static_cast<double>(
                           entry->frame_data[residue.offset]);
              }
              if (!gather.ok()) break;
              series.push_back(acc);
            }
            const double eval_micros = eval_timer.ElapsedMicros();
            if (!gather.ok()) {
              result.rows[static_cast<size_t>(i)] = std::move(gather);
              continue;
            }
            result.rows[static_cast<size_t>(i)] =
                MakeRow(series, plan.spec.aggregation, keep_series, rq,
                        slot, eval_micros, &shard_trace);
          }
        });
    gather_span.Close();
    result.timings.eval_micros = stage_timer.ElapsedMicros();
    RankTopK(plan, options.trace, &result);
    result.timings.total_micros = total_timer.ElapsedMicros();
    return result;
  }

  ScopedSpan gather_span(options.trace, SpanName::kGather,
                         plan.num_point_queries());

  query_internal::RunSharded(
      options.pool, options.num_threads,
      static_cast<int64_t>(plan.rows.size()),
      [&](int64_t begin, int64_t end) {
        TraceContext shard_trace;
        if (options.trace != nullptr) shard_trace = *options.trace;
        query_internal::FrameMemo memo(server_->store(), options.generation);
        std::vector<double> series;
        for (int64_t i = begin; i < end; ++i) {
          const PlanRow& planned = plan.rows[static_cast<size_t>(i)];
          const SlotResolution& slot =
              slots[static_cast<size_t>(planned.region_slot)];
          if (!slot.resolved.ok()) {
            result.rows[static_cast<size_t>(i)] = slot.resolved.status();
            continue;
          }
          const ResolvedQuery& rq = **slot.resolved;
          series.clear();
          // Clamped reserve: a hint only, so a huge (likely mistaken)
          // range cannot bad_alloc here before the first gather gets the
          // chance to fail with a per-row NotFound.
          series.reserve(static_cast<size_t>(
              std::min<int64_t>(planned.num_steps(), 4096)));
          Stopwatch eval_timer;
          Status gather = Status::OK();
          for (int64_t t = planned.t0; t <= planned.t1; ++t) {
            double value = 0.0;
            gather = memo.Evaluate(rq.terms, t, &value);
            if (!gather.ok()) break;
            series.push_back(value);
          }
          const double eval_micros = eval_timer.ElapsedMicros();
          if (!gather.ok()) {
            result.rows[static_cast<size_t>(i)] = std::move(gather);
            continue;
          }
          result.rows[static_cast<size_t>(i)] =
              MakeRow(series, plan.spec.aggregation, keep_series, rq,
                      slot, eval_micros, &shard_trace);
        }
      });
  gather_span.Close();
  result.timings.eval_micros = stage_timer.ElapsedMicros();
  RankTopK(plan, options.trace, &result);
  result.timings.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace one4all
