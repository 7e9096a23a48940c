#include "shard/shard_executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/stopwatch.h"
#include "query/frame_memo.h"
#include "query/resolved_query_cache.h"

namespace one4all {

namespace {

/// \brief Resolve-stage outcome for one distinct region (the sharded
/// twin of the QueryExecutor's SlotResolution, plus routing state).
struct ShardSlot {
  Result<std::shared_ptr<const ResolvedQuery>> resolved =
      Status::Internal("slot not resolved");
  bool cache_hit = false;
  double probe_micros = 0.0;
  int home_shard = 0;
  /// Term indices owned by each shard (element k: shard k's terms).
  std::vector<std::vector<int32_t>> scatter;
  /// term index -> (owning shard, position within that shard's list).
  std::vector<std::pair<int, int32_t>> owner_pos;
  /// Union timestep range over every plan row referencing this slot.
  int64_t t_min = 0;
  int64_t t_max = -1;

  int64_t num_steps() const { return t_max - t_min + 1; }
};

/// \brief One failed term read: shard k could not serve (term, t). The
/// merge keeps the lowest term index per (slot, dt), so a row fails
/// with the same status the single-shard cell loop (first failing term
/// of the first failing timestep) would have surfaced.
struct TermFailure {
  int slot = 0;
  int64_t dt = 0;
  int32_t term = 0;
  Status status;
};

}  // namespace

ShardExecutor::ShardExecutor(const RegionQueryServer* server,
                             ShardSet* shards)
    : server_(server), shards_(shards), router_(&shards->map()) {
  O4A_CHECK(server != nullptr);
  O4A_CHECK(shards != nullptr);
}

QueryResult ShardExecutor::Execute(const QueryPlan& plan,
                                   const ShardPinSet& pins,
                                   const ShardExecutorOptions& options) const {
  Stopwatch total_timer;
  QueryResult result;
  result.kind = plan.spec.kind;
  result.timings.plan_micros = plan.plan_micros;
  result.rows.assign(plan.rows.size(),
                     Status::Internal("row not evaluated"));

  const int num_shards = shards_->num_shards();
  const size_t num_slots = plan.borrowed_regions.empty()
                               ? plan.slot_regions.size()
                               : plan.borrowed_regions.size();

  // -- Stage 1: resolve each distinct region at its home shard ------------
  Stopwatch stage_timer;
  std::vector<ShardSlot> slots(num_slots);
  {
    ScopedSpan resolve_span(options.trace, SpanName::kResolve,
                            static_cast<int64_t>(slots.size()));
    query_internal::RunSharded(
        options.pool, options.num_threads,
        static_cast<int64_t>(slots.size()),
        [&](int64_t begin, int64_t end) {
          TraceContext shard_trace;
          if (options.trace != nullptr) shard_trace = *options.trace;
          for (int64_t s = begin; s < end; ++s) {
            ShardSlot& slot = slots[static_cast<size_t>(s)];
            const GridMask& region =
                plan.RegionForSlot(static_cast<int>(s));
            slot.home_shard = router_.HomeShard(region);
            ScopedSpan probe_span(&shard_trace, SpanName::kCacheProbe);
            Stopwatch probe;
            slot.resolved = server_->ResolveCached(
                region, plan.spec.strategy,
                plan.slot_fingerprints[static_cast<size_t>(s)],
                &shards_->shard(slot.home_shard).cache, &slot.cache_hit);
            slot.probe_micros = probe.ElapsedMicros();
            probe_span.set_arg(slot.cache_hit ? 1 : 0);
            if (slot.resolved.ok()) {
              slot.scatter = router_.ScatterTerms((**slot.resolved).terms);
            }
          }
        });
  }
  result.timings.resolve_micros = stage_timer.ElapsedMicros();
  for (const ShardSlot& slot : slots) {
    if (!slot.resolved.ok()) continue;
    if (slot.cache_hit) {
      ++result.cache_hits;
    } else {
      ++result.cache_misses;
    }
  }

  // Routing tables the scatter and merge stages share: per-slot timestep
  // ranges (union over referencing rows), each term's owning shard, and
  // each shard's flat value-buffer layout.
  stage_timer.Restart();
  for (const PlanRow& planned : plan.rows) {
    ShardSlot& slot = slots[static_cast<size_t>(planned.region_slot)];
    if (slot.t_max < slot.t_min) {
      slot.t_min = planned.t0;
      slot.t_max = planned.t1;
    } else {
      slot.t_min = std::min(slot.t_min, planned.t0);
      slot.t_max = std::max(slot.t_max, planned.t1);
    }
  }
  for (ShardSlot& slot : slots) {
    if (!slot.resolved.ok() || slot.t_max < slot.t_min) continue;
    slot.owner_pos.assign((**slot.resolved).terms.size(), {0, 0});
    for (int k = 0; k < num_shards; ++k) {
      const std::vector<int32_t>& owned =
          slot.scatter[static_cast<size_t>(k)];
      for (size_t j = 0; j < owned.size(); ++j) {
        slot.owner_pos[static_cast<size_t>(owned[j])] = {
            k, static_cast<int32_t>(j)};
      }
    }
  }
  // value_base[k][s]: offset of slot s's owned-term values inside shard
  // k's flat buffer (owned-term-major, dt-minor).
  std::vector<std::vector<int64_t>> value_base(
      static_cast<size_t>(num_shards),
      std::vector<int64_t>(num_slots, 0));
  std::vector<int64_t> shard_values_size(static_cast<size_t>(num_shards),
                                         0);
  for (int k = 0; k < num_shards; ++k) {
    int64_t offset = 0;
    for (size_t s = 0; s < num_slots; ++s) {
      value_base[static_cast<size_t>(k)][s] = offset;
      const ShardSlot& slot = slots[s];
      if (!slot.resolved.ok() || slot.t_max < slot.t_min) continue;
      offset += static_cast<int64_t>(
                    slot.scatter[static_cast<size_t>(k)].size()) *
                slot.num_steps();
    }
    shard_values_size[static_cast<size_t>(k)] = offset;
  }

  // -- Stage 2a: scatter — band-local term reads on every shard -----------
  std::vector<std::vector<float>> shard_values(
      static_cast<size_t>(num_shards));
  std::vector<std::vector<TermFailure>> shard_failures(
      static_cast<size_t>(num_shards));
  const ShardMap& map = shards_->map();
  query_internal::RunSharded(
      options.pool, options.num_threads, num_shards,
      [&](int64_t begin, int64_t end) {
        TraceContext shard_trace;
        if (options.trace != nullptr) shard_trace = *options.trace;
        for (int64_t k = begin; k < end; ++k) {
          std::vector<float>& values =
              shard_values[static_cast<size_t>(k)];
          values.assign(
              static_cast<size_t>(shard_values_size[static_cast<size_t>(k)]),
              0.0f);
          int64_t term_reads = 0;
          ScopedSpan scatter_span(&shard_trace, SpanName::kShardScatter);
          query_internal::FrameMemo memo(
              &shards_->shard(static_cast<int>(k)).store,
              pins.generation(static_cast<int>(k)));
          for (size_t s = 0; s < num_slots; ++s) {
            const ShardSlot& slot = slots[s];
            if (!slot.resolved.ok() || slot.t_max < slot.t_min) continue;
            const std::vector<CombinationTerm>& terms =
                (**slot.resolved).terms;
            const std::vector<int32_t>& owned =
                slot.scatter[static_cast<size_t>(k)];
            const int64_t steps = slot.num_steps();
            const int64_t base =
                value_base[static_cast<size_t>(k)][s];
            for (size_t j = 0; j < owned.size(); ++j) {
              const CombinationTerm& term =
                  terms[static_cast<size_t>(owned[j])];
              const int64_t local_row =
                  map.LocalRow(static_cast<int>(k), term.grid);
              for (int64_t dt = 0; dt < steps; ++dt) {
                Result<const TiledFrame*> frame =
                    memo.Get(term.grid.layer, slot.t_min + dt);
                if (!frame.ok()) {
                  shard_failures[static_cast<size_t>(k)].push_back(
                      TermFailure{static_cast<int>(s), dt, owned[j],
                                  frame.status()});
                  continue;
                }
                values[static_cast<size_t>(
                    base + static_cast<int64_t>(j) * steps + dt)] =
                    (*frame)->at(local_row, term.grid.col);
              }
              term_reads += steps;
            }
          }
          scatter_span.set_arg(term_reads);
          shards_->shard(static_cast<int>(k))
              .terms_evaluated.fetch_add(term_reads,
                                         std::memory_order_relaxed);
        }
      });

  // Merge the shards' failure records into per-(slot, dt) verdicts,
  // keeping the lowest term index — the term the single-shard cell loop
  // would have tripped on first.
  std::vector<std::vector<int32_t>> fail_term(num_slots);
  std::vector<std::vector<Status>> fail_status(num_slots);
  for (const std::vector<TermFailure>& failures : shard_failures) {
    for (const TermFailure& failure : failures) {
      const size_t s = static_cast<size_t>(failure.slot);
      if (fail_term[s].empty()) {
        fail_term[s].assign(
            static_cast<size_t>(slots[s].num_steps()),
            std::numeric_limits<int32_t>::max());
        fail_status[s].resize(static_cast<size_t>(slots[s].num_steps()));
      }
      const size_t dt = static_cast<size_t>(failure.dt);
      if (failure.term < fail_term[s][dt]) {
        fail_term[s][dt] = failure.term;
        fail_status[s][dt] = failure.status;
      }
    }
  }

  // -- Stage 2b: gather — canonical-order fold into result rows -----------
  const bool keep_series =
      plan.spec.keep_series && !plan.spec.time.IsPoint();
  {
    ScopedSpan gather_span(options.trace, SpanName::kShardGather,
                           static_cast<int64_t>(plan.rows.size()));
    query_internal::RunSharded(
        options.pool, options.num_threads,
        static_cast<int64_t>(plan.rows.size()),
        [&](int64_t begin, int64_t end) {
          TraceContext shard_trace;
          if (options.trace != nullptr) shard_trace = *options.trace;
          std::vector<double> series;
          for (int64_t i = begin; i < end; ++i) {
            const PlanRow& planned = plan.rows[static_cast<size_t>(i)];
            const size_t s = static_cast<size_t>(planned.region_slot);
            const ShardSlot& slot = slots[s];
            if (!slot.resolved.ok()) {
              result.rows[static_cast<size_t>(i)] = slot.resolved.status();
              continue;
            }
            const ResolvedQuery& rq = **slot.resolved;
            const int64_t steps = slot.num_steps();
            series.clear();
            series.reserve(static_cast<size_t>(
                std::min<int64_t>(planned.num_steps(), 4096)));
            Stopwatch eval_timer;
            Status gather = Status::OK();
            for (int64_t t = planned.t0; t <= planned.t1; ++t) {
              const int64_t dt = t - slot.t_min;
              if (!fail_term[s].empty() &&
                  fail_term[s][static_cast<size_t>(dt)] !=
                      std::numeric_limits<int32_t>::max()) {
                gather = fail_status[s][static_cast<size_t>(dt)];
                break;
              }
              // The bit-exactness contract: same accumulator type, same
              // sign cast, same left-to-right term order as the
              // single-shard FrameMemo::Evaluate — only the float values
              // crossed a shard boundary.
              double acc = 0.0;
              for (size_t ti = 0; ti < rq.terms.size(); ++ti) {
                const std::pair<int, int32_t>& owner = slot.owner_pos[ti];
                const float value = shard_values[static_cast<size_t>(
                    owner.first)][static_cast<size_t>(
                    value_base[static_cast<size_t>(owner.first)][s] +
                    static_cast<int64_t>(owner.second) * steps + dt)];
                acc += static_cast<double>(rq.terms[ti].sign) *
                       static_cast<double>(value);
              }
              series.push_back(acc);
            }
            const double eval_micros = eval_timer.ElapsedMicros();
            if (!gather.ok()) {
              result.rows[static_cast<size_t>(i)] = std::move(gather);
              continue;
            }
            result.rows[static_cast<size_t>(i)] =
                query_internal::MakeQueryRow(
                    series, plan.spec.aggregation, keep_series, rq,
                    slot.cache_hit, slot.probe_micros, eval_micros,
                    &shard_trace);
          }
        });
  }
  result.timings.eval_micros = stage_timer.ElapsedMicros();
  query_internal::RankTopK(plan, options.trace, &result);
  result.timings.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace one4all
