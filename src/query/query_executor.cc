#include "query/query_executor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/stopwatch.h"
#include "kvstore/prediction_store.h"
#include "obs/metrics.h"
#include "query/resolved_query_cache.h"
#include "query/topk_memo.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "tensor/tiled_sat.h"

namespace one4all {

namespace {

/// \brief Outcome of the resolve stage for one distinct region.
struct SlotResolution {
  Result<std::shared_ptr<const ResolvedQuery>> resolved =
      Status::Internal("slot not resolved");
  bool cached = false;  ///< a resolve cache was probed
  bool cache_hit = false;
  double probe_micros = 0.0;
};

/// \brief The aggregation fold. Left-to-right accumulation in series
/// order — part of the bit-exactness contract, so no caller may re-fold
/// with a different association.
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

/// \brief Builds one result row from its gathered series plus the
/// resolution's accounting and the resolve-cache probe behind it.
QueryRow MakeRow(const std::vector<double>& series, TimeAggregation agg,
                 bool keep_series, const ResolvedQuery& rq,
                 const SlotResolution& slot, double eval_micros,
                 TraceContext* trace) {
  QueryRow row;
  {
    ScopedSpan fold_span(trace, SpanName::kFold,
                         static_cast<int64_t>(series.size()));
    row.value = FoldSeries(series, agg);
  }
  if (keep_series) row.series = series;
  row.num_pieces = rq.num_pieces;
  row.num_terms = static_cast<int>(rq.terms.size());
  row.from_cache = slot.cache_hit;
  row.eval_micros = eval_micros;
  if (slot.cache_hit) {
    // Decompose + index were skipped; report the actual resolve-path
    // latency (the cache lookup).
    row.response_micros = slot.probe_micros;
  } else {
    row.decompose_micros = rq.decompose_micros;
    row.index_micros = rq.index_micros;
    row.response_micros = rq.decompose_micros + rq.index_micros;
  }
  return row;
}

/// \brief Stage 3: top-k rank over `result->rows` (no-op unless the plan
/// is a kTopK spec). Ties break toward the lower row index.
void RankTopK(const QueryPlan& plan, TraceContext* trace,
              QueryResult* result) {
  if (plan.spec.kind != QuerySpecKind::kTopK) return;
  ScopedSpan rank_span(trace, SpanName::kRank, plan.spec.top_k);
  Stopwatch stage_timer;
  result->top_k = TopKMemo::RankRows(result->rows, plan.spec.top_k);
  result->timings.rank_micros = stage_timer.ElapsedMicros();
}

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

// -- Stage 2: the gather interpreter ----------------------------------------

/// \brief Most (source, t) entries the frame table holds at once. A row
/// whose range needs more is gathered one window of timesteps at a time,
/// so a range far past what the store holds fails NotFound at its first
/// missing timestep without allocating in proportion to the range.
constexpr int64_t kMaxFrameTableEntries = 4096;

/// \brief One (shard, layer) some row of the plan reads: rects from its
/// summed-area plane, residues from its frame.
struct FrameSource {
  int shard = 0;
  int layer = 1;
};

/// \brief What was pinned for one (source, t). The hot loops read the
/// raw tile table hoisted at fetch time — no Result<> unwrapping per
/// read.
struct FrameTableEntry {
  /// The pinned frame's tile table (TiledFrame::tiles()): residues read
  /// tiles[tile][in_tile]. Null when nothing is stored at (source, t).
  const float* const* tiles = nullptr;
  /// Frame and plane shared straight out of the store (refcount bumps,
  /// no cell copy); the pins keep both alive past any reclamation of
  /// their generation.
  PredictionStore::StoredFrame pinned;
  Status error;  ///< fetch failure (NotFound)
};

/// \brief The plan's sources pinned over timesteps [t0, t0 + steps):
/// entry (source s, t) sits at entries[s * steps + (t - t0)].
struct FrameTable {
  int64_t t0 = 0;
  int64_t steps = 0;
  std::vector<FrameTableEntry> entries;

  bool Covers(int64_t w0, int64_t len) const {
    return steps > 0 && w0 >= t0 && w0 + len <= t0 + steps;
  }
};

/// \brief Pins every source at every timestep of [w0, w0 + len) from
/// its shard's store: once per window, shared by every row reading it.
void FillFrameTable(const std::vector<FrameSource>& sources,
                    const std::vector<ShardReadView>& shards, int64_t w0,
                    int64_t len, FrameTable* table) {
  table->t0 = w0;
  table->steps = len;
  table->entries.clear();
  table->entries.resize(sources.size() * static_cast<size_t>(len));
  FrameTableEntry* entry = table->entries.data();
  for (const FrameSource& source : sources) {
    const ShardReadView& view = shards[static_cast<size_t>(source.shard)];
    for (int64_t t = w0; t < w0 + len; ++t, ++entry) {
      Result<PredictionStore::StoredFrame> stored =
          view.store->GetStoredFrameAt(view.generation, source.layer, t);
      if (!stored.ok()) {
        entry->error = stored.status();
        continue;
      }
      entry->pinned = stored.MoveValueUnsafe();
      entry->tiles = entry->pinned.frame->tiles();
    }
  }
}

/// \brief A resolution's gather program in the interpreter's address
/// space: each read's layer_index names an entry of `sources`. At N = 1
/// the reads are the program's own (one source per program layer); at
/// N > 1 they are its rects clipped to the bands they cross and its
/// residues at band-local addresses, in program order. The pointers
/// reach into the program or into the plan's GatherScratch.
struct BoundProgram {
  const SatRectRead* rects = nullptr;
  size_t num_rects = 0;
  const ResidueRead* residues = nullptr;
  size_t num_residues = 0;
  /// Indices into the plan's FrameSource list, layer-ascending, then
  /// shard-ascending: the availability check's order.
  const int* sources = nullptr;
  size_t num_sources = 0;
  /// Reads per timestep each shard serves: 4 per rect part, 1 per
  /// residue.
  const int64_t* reads_per_shard = nullptr;
};

/// \brief Every buffer a plan's gather fills. One per thread, reused
/// plan after plan: capacity persists, so a steady stream of small plans
/// allocates nothing, while every plan starts empty and releases its
/// pins when it ends. Binding reserves each arena's worst case first, so
/// the BoundProgram pointers into them stay valid.
struct GatherScratch {
  std::vector<int> source_of;  ///< shard * (layers + 1) + layer -> source
  std::vector<FrameSource> sources;
  std::vector<BoundProgram> bound;  ///< per plan slot
  std::vector<int> bound_sources;
  std::vector<SatRectRead> band_rects;
  std::vector<ResidueRead> band_residues;
  std::vector<int64_t> reads_per_shard;
  std::vector<int> local_of;  ///< layer * shards + shard -> used, index
  FrameTable table;
  std::vector<double> series;
  std::vector<const FrameTableEntry*> bases;
  std::vector<int64_t> shard_reads;

  int AddSource(int shard, int layer, int num_layers) {
    int& at = source_of[static_cast<size_t>(shard) * (num_layers + 1) +
                        static_cast<size_t>(layer)];
    if (at < 0) {
      at = static_cast<int>(sources.size());
      sources.push_back(FrameSource{shard, layer});
    }
    return at;
  }
};

/// \brief N = 1: the program reads shard 0 as compiled.
BoundProgram BindWhole(const GatherProgram& program, int num_layers,
                       GatherScratch* scratch) {
  BoundProgram bound;
  bound.rects = program.rects.data();
  bound.num_rects = program.rects.size();
  bound.residues = program.residues.data();
  bound.num_residues = program.residues.size();
  bound.sources = scratch->bound_sources.data() + scratch->bound_sources.size();
  bound.num_sources = program.layers.size();
  for (const GatherLayerNeed& need : program.layers) {
    scratch->bound_sources.push_back(
        scratch->AddSource(0, need.layer, num_layers));
  }
  bound.reads_per_shard =
      scratch->reads_per_shard.data() + scratch->reads_per_shard.size();
  scratch->reads_per_shard.push_back(program.num_reads());
  return bound;
}

/// \brief N > 1: clips each rect by ShardMap::SliceOf into one part per
/// band it crosses, at band-local rows, and addresses each residue in
/// its owner's band frame (OwnerOf, LocalRow, TileAddressOf).
BoundProgram BindToBands(const GatherProgram& program, const ShardMap& bands,
                         GatherScratch* scratch) {
  const Hierarchy& hierarchy = *bands.hierarchy();
  const int num_layers = hierarchy.num_layers();
  const int num_shards = bands.num_shards();
  // Each read's layer_index first holds its (layer, shard) key, marked
  // used in local_of; numbering the used keys in ascending order then
  // orders the sources layer-ascending, then shard-ascending.
  std::vector<int>& local_of = scratch->local_of;
  local_of.assign(static_cast<size_t>(num_layers + 1) * num_shards, -1);
  const auto key_of = [num_shards](int layer, int shard) {
    return layer * num_shards + shard;
  };
  BoundProgram bound;
  const size_t reads_begin = scratch->reads_per_shard.size();
  scratch->reads_per_shard.resize(reads_begin +
                                  static_cast<size_t>(num_shards));
  int64_t* reads = scratch->reads_per_shard.data() + reads_begin;
  bound.reads_per_shard = reads;

  const size_t rect_begin = scratch->band_rects.size();
  for (const SatRectRead& rect : program.rects) {
    for (int k = 0; k < num_shards; ++k) {
      const ShardLayerSlice& slice = bands.SliceOf(k, rect.layer);
      const int64_t r0 = std::max(rect.r0, slice.row_begin);
      const int64_t r1 = std::min(rect.r1, slice.row_end);
      if (r0 >= r1) continue;
      SatRectRead part = rect;
      part.r0 = r0 - slice.row_begin;
      part.r1 = r1 - slice.row_begin;
      part.layer_index = key_of(rect.layer, k);
      local_of[static_cast<size_t>(part.layer_index)] = 0;
      scratch->band_rects.push_back(part);
      reads[k] += 4;
    }
  }
  const size_t residue_begin = scratch->band_residues.size();
  for (const ResidueRead& residue : program.residues) {
    const int64_t width = hierarchy.layer(residue.layer).width;
    const GridId cell{residue.layer, residue.offset / width,
                      residue.offset % width};
    const int owner = bands.OwnerOf(cell);
    const TileAddress address =
        TileAddressOf(width, bands.LocalRow(owner, cell), cell.col);
    ResidueRead read = residue;
    read.tile = address.tile;
    read.in_tile = address.in_tile;
    read.layer_index = key_of(residue.layer, owner);
    local_of[static_cast<size_t>(read.layer_index)] = 0;
    scratch->band_residues.push_back(read);
    reads[owner] += 1;
  }

  bound.sources = scratch->bound_sources.data() + scratch->bound_sources.size();
  int next = 0;
  for (int key = 0; key < static_cast<int>(local_of.size()); ++key) {
    if (local_of[static_cast<size_t>(key)] < 0) continue;
    scratch->bound_sources.push_back(
        scratch->AddSource(key % num_shards, key / num_shards, num_layers));
    local_of[static_cast<size_t>(key)] = next++;
  }
  bound.num_sources = static_cast<size_t>(next);
  for (size_t i = rect_begin; i < scratch->band_rects.size(); ++i) {
    SatRectRead& read = scratch->band_rects[i];
    read.layer_index = local_of[static_cast<size_t>(read.layer_index)];
  }
  for (size_t i = residue_begin; i < scratch->band_residues.size(); ++i) {
    ResidueRead& read = scratch->band_residues[i];
    read.layer_index = local_of[static_cast<size_t>(read.layer_index)];
  }
  bound.rects = scratch->band_rects.data() + rect_begin;
  bound.num_rects = scratch->band_rects.size() - rect_begin;
  bound.residues = scratch->band_residues.data() + residue_begin;
  bound.num_residues = scratch->band_residues.size() - residue_begin;
  return bound;
}

/// \brief Binds every resolved slot's program to the shard layout and
/// registers the plan's sources. Each arena is reserved for its worst
/// case first (every rect split across every band), so no push_back
/// moves what an earlier BoundProgram points at.
void BindSlots(const std::vector<SlotResolution>& slots,
               const ShardMap* bands, int num_shards, int num_layers,
               GatherScratch* scratch) {
  size_t rects = 0, residues = 0, layers = 0;
  for (const SlotResolution& slot : slots) {
    if (!slot.resolved.ok()) continue;
    const GatherProgram& program = (**slot.resolved).gather;
    rects += program.rects.size();
    residues += program.residues.size();
    layers += program.layers.size();
  }
  const size_t shards = static_cast<size_t>(num_shards);
  scratch->source_of.assign(shards * static_cast<size_t>(num_layers + 1),
                            -1);
  scratch->sources.clear();
  scratch->bound.assign(slots.size(), BoundProgram{});
  scratch->bound_sources.clear();
  scratch->bound_sources.reserve(layers * shards);
  scratch->band_rects.clear();
  scratch->band_residues.clear();
  scratch->reads_per_shard.clear();
  scratch->reads_per_shard.reserve(slots.size() * shards);
  if (bands != nullptr) {
    scratch->band_rects.reserve(rects * shards);
    scratch->band_residues.reserve(residues);
  }
  for (size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].resolved.ok()) continue;
    const GatherProgram& program = (**slots[s].resolved).gather;
    scratch->bound[s] = bands == nullptr
                            ? BindWhole(program, num_layers, scratch)
                            : BindToBands(program, *bands, scratch);
  }
}

/// \brief Availability first: the error of the first timestep of the
/// window holding a missing entry and, within it, of the first source
/// the reads need. OK when every read of the window can be made.
Status CheckWindow(const BoundProgram& bound,
                   const FrameTableEntry* const* bases, int64_t len) {
  for (int64_t dt = 0; dt < len; ++dt) {
    for (size_t li = 0; li < bound.num_sources; ++li) {
      const FrameTableEntry* entry = bases[li] + dt;
      if (entry->tiles == nullptr) return entry->error;
    }
  }
  return Status::OK();
}

/// \brief Read-outer, timestep-inner into per-step accumulators: each
/// read's coordinates stay hot across the window, and every step adds
/// the same reads in the same order (rects, then residues).
void AccumulateReads(const BoundProgram& bound,
                     const FrameTableEntry* const* bases, int64_t len,
                     double* acc) {
  for (size_t i = 0; i < bound.num_rects; ++i) {
    const SatRectRead& rect = bound.rects[i];
    const FrameTableEntry* entry =
        bases[static_cast<size_t>(rect.layer_index)];
    const double sign = static_cast<double>(rect.sign);
    for (int64_t dt = 0; dt < len; ++dt, ++entry) {
      acc[dt] += sign * entry->pinned.plane->RectSum(rect.r0, rect.c0,
                                                     rect.r1, rect.c1);
    }
  }
  for (size_t i = 0; i < bound.num_residues; ++i) {
    const ResidueRead& residue = bound.residues[i];
    const FrameTableEntry* entry =
        bases[static_cast<size_t>(residue.layer_index)];
    const double sign = static_cast<double>(residue.sign);
    for (int64_t dt = 0; dt < len; ++dt, ++entry) {
      acc[dt] += sign * static_cast<double>(
                            entry->tiles[residue.tile][residue.in_tile]);
    }
  }
}

/// \brief Stage 2 at any shard count: binds each resolution's program
/// to the shard layout once, then gathers every row window by window
/// through one frame table.
void GatherRows(const QueryPlan& plan,
                const std::vector<SlotResolution>& slots,
                const std::vector<ShardReadView>& shards,
                const ShardMap* bands, int num_layers, bool keep_series,
                TraceContext* trace, std::vector<Result<QueryRow>>* rows) {
  thread_local GatherScratch scratch;
  const int num_shards = static_cast<int>(shards.size());
  BindSlots(slots, bands, num_shards, num_layers, &scratch);
  const int64_t num_sources =
      std::max<int64_t>(1, static_cast<int64_t>(scratch.sources.size()));
  const int64_t window =
      std::max<int64_t>(1, kMaxFrameTableEntries / num_sources);

  FrameTable& table = scratch.table;
  std::vector<double>& series = scratch.series;
  std::vector<const FrameTableEntry*>& bases = scratch.bases;
  std::vector<int64_t>& shard_reads = scratch.shard_reads;
  shard_reads.assign(shards.size(), 0);
  for (size_t i = 0; i < plan.rows.size(); ++i) {
    const PlanRow& planned = plan.rows[i];
    const size_t s = static_cast<size_t>(planned.region_slot);
    const SlotResolution& slot = slots[s];
    if (!slot.resolved.ok()) {
      (*rows)[i] = slot.resolved.status();
      continue;
    }
    const BoundProgram& program = scratch.bound[s];
    const int64_t steps = planned.num_steps();
    Stopwatch eval_timer;
    series.clear();
    Status gather = Status::OK();
    for (int64_t done = 0; done < steps && gather.ok();) {
      const int64_t w0 = planned.t0 + done;
      const int64_t len = std::min(window, steps - done);
      if (!table.Covers(w0, len)) {
        FillFrameTable(scratch.sources, shards, w0, len, &table);
      }
      bases.resize(program.num_sources);
      for (size_t li = 0; li < bases.size(); ++li) {
        bases[li] = table.entries.data() +
                    static_cast<int64_t>(program.sources[li]) * table.steps +
                    (w0 - table.t0);
      }
      gather = CheckWindow(program, bases.data(), len);
      if (!gather.ok()) break;
      series.resize(static_cast<size_t>(done + len), 0.0);
      AccumulateReads(program, bases.data(), len, series.data() + done);
      done += len;
    }
    const int64_t answered = static_cast<int64_t>(series.size());
    for (size_t k = 0; k < shards.size(); ++k) {
      shard_reads[k] += program.reads_per_shard[k] * answered;
    }
    if (!gather.ok()) {
      (*rows)[i] = std::move(gather);
      continue;
    }
    const double eval_micros = eval_timer.ElapsedMicros();
    (*rows)[i] = MakeRow(series, plan.spec.aggregation, keep_series,
                         **slot.resolved, slot, eval_micros, trace);
  }
  // Release the plan's pins; the buffers keep their capacity.
  table.entries.clear();
  table.steps = 0;
  for (size_t k = 0; k < shards.size(); ++k) {
    Counter* counter = shards[k].gather_reads;
    if (counter != nullptr && shard_reads[k] > 0) {
      counter->fetch_add(shard_reads[k]);
    }
  }
}

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
    GatherRows(plan, slots, shards, bands,
               server_->hierarchy()->num_layers(), keep_series,
               options.trace, &result.rows);
  }
  result.timings.eval_micros = stage_timer.ElapsedMicros();
  RankTopK(plan, options.trace, &result);
  result.timings.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace one4all
