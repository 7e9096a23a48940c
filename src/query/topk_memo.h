// Incremental top-k ranking across epochs. A subscribed top-k query is
// the same spec re-issued at each newly published timestep; between two
// issues only the cells the ingestor's diffs marked changed actually
// moved, so any region whose term footprint misses every intervening
// change must rank with the exact value it had last time. The memo keeps
// the last evaluation of each distinct top-k spec plus a bounded history
// of per-publish dirty sets, and tells the serving runtime which rows it
// may carry over verbatim — the executor then re-gathers only the rows
// the churn could have moved, and the ranking is re-sorted locally.
//
// Soundness over cleverness: a row is reused only when every publish
// since its memoized timestep is in the history window AND carries a
// known dirty set that misses the row's footprint at every layer. The
// footprint is the region's atomic bounding box rounded out to the
// coarsest layer's grid boundaries — a superset of every combination
// term the planner can choose for the region (union grids intersect the
// region, subtraction grids lie inside union grids), so over-marking
// only costs a re-evaluation, never a stale value. Dirty sets are
// checked per changed layer *cell* when the publish's diff carried cell
// bits (DiffFrames does), per 32x32 tile otherwise: at 128x128 every
// layer of scale >= 4 is a single tile, so only cell bits let a row in
// an unchurned part of a coarse layer stay clean.
//
// The footprint bounds what a row's value depends on because every
// value is a function of the cells inside it: the exact cell loop reads
// only those cells, and a SAT-path row's four-corner rect sums are the
// exact sums of their rects (the store snaps every cell to a multiple
// of 2^-20 and caps a frame's absolute sum, so no plane double rounds;
// tensor/tiled_sat.h).
//
// Timestep contract: the memo proves that a row did not change between
// two timesteps; it does not know which timesteps are servable. Callers
// probe and store only at a timestep the epoch they read holds
// (published and not yet reclaimed), so a memoized row is always a
// value read from a published frame — never a failure caused by the
// timestep being unpublished or reclaimed — and a warm answer at a
// timestep the cold path would refuse is never served.
//
// Entries are keyed and verified on the spec's knobs plus each row's
// 128-bit RegionFingerprint, never on mask bytes: the planner already
// hashed every region once, and this is the same trust the resolve
// cache places in the fingerprint for correctness (a collision there
// would serve another region's terms; here, another region's row).
#ifndef ONE4ALL_QUERY_TOPK_MEMO_H_
#define ONE4ALL_QUERY_TOPK_MEMO_H_

#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <vector>

#include "grid/hierarchy.h"
#include "obs/metrics.h"
#include "query/query_executor.h"
#include "query/query_planner.h"
#include "query/query_spec.h"
#include "tensor/tiled_sat.h"

namespace one4all {

class TopKMemo {
 public:
  /// Distinct memoized specs (LRU-evicted beyond this).
  static constexpr size_t kCapacity = 64;
  /// Publish records retained; a memoized evaluation older than the
  /// oldest retained publish cannot prove any row clean and misses.
  static constexpr size_t kHistory = 64;

  /// \param hierarchy Must outlive the memo (layer scales map atomic
  /// footprints onto each layer's dirty grid).
  explicit TopKMemo(const Hierarchy* hierarchy);

  TopKMemo(const TopKMemo&) = delete;
  TopKMemo& operator=(const TopKMemo&) = delete;

  /// \brief Records one published epoch: timestep `t` changed `dirty`
  /// (per-layer, indexed [layer-1]) vs. t-1. Null — or any unknown /
  /// missing per-layer entry — is remembered as "everything changed".
  /// Thread-safe against concurrent Lookup/Store.
  void OnPublish(int64_t t, const DirtyTileSets* dirty);

  /// \brief Drops every memoized spec and the publish history (index
  /// swap: resolutions change, so carried values may too).
  void Invalidate();

  /// \brief Identity of a memoized evaluation: a point top-k spec's
  /// knobs plus its rows' region fingerprints, in row order. The time
  /// selector is left out on purpose — a subscription is the same
  /// question at an advancing timestep.
  struct Key {
    TimeAggregation aggregation = TimeAggregation::kSum;
    QueryStrategy strategy = QueryStrategy::kUnionSubtraction;
    EvalPath eval_path = EvalPath::kExactCellLoop;
    int top_k = 0;
    bool keep_series = false;
    std::vector<RegionFingerprint> rows;
    uint64_t hash = 0;  ///< over every field above; compared first

    bool operator==(const Key& other) const;
  };

  /// \brief The key of a full (not row-restricted) plan: row i keys on
  /// plan.slot_fingerprints[plan.rows[i].region_slot].
  static Key KeyFor(const QueryPlan& plan);

  /// \brief What a probe proved about a spec about to execute.
  struct Probe {
    bool hit = false;    ///< entry found for this exact spec
    int64_t memo_t = -1; ///< timestep of the memoized evaluation
    /// Per region index: true when the memoized row provably still
    /// holds at the probed timestep. Sized spec.regions.size() on hit.
    std::vector<bool> clean;
    /// The memoized rows (aligned with `clean`); only entries whose
    /// clean flag is true may be carried into a merged result.
    std::vector<Result<QueryRow>> rows;
  };

  /// \brief Probes for `key` evaluated at point timestep `t`, which the
  /// caller's pinned epoch must hold. A hit proves, per row, whether the
  /// memoized value is still exact at `t` given every publish since
  /// memo_t. Callers only probe point top-k specs. Non-const: a hit
  /// refreshes the entry's LRU position.
  Probe Lookup(const Key& key, int64_t t);

  /// \brief Memoizes `rows` as the evaluation of `key` at timestep `t`,
  /// which the epoch the rows were read from must hold (see the
  /// timestep contract above). `regions` are the spec's masks (row i
  /// answers regions[i]); they are read only when the entry is new, to
  /// compute its footprints. Rows that failed for a reason other than
  /// the timestep (e.g. an unresolvable region) are stored too — they
  /// stay failed until their footprint churns.
  void Store(Key key, int64_t t, const std::vector<GridMask>& regions,
             const std::vector<Result<QueryRow>>& rows);

  /// \brief RankTopK's exact ordering (value desc, ties toward the lower
  /// row index, failed rows skipped, clamped to k) over free rows —
  /// used to re-rank a merged memo+fresh row set.
  static std::vector<int> RankRows(const std::vector<Result<QueryRow>>& rows,
                                   int k);

  int64_t rows_reused() const { return rows_reused_.value(); }
  int64_t rows_reevaluated() const { return rows_reevaluated_.value(); }
  /// \brief Exports both counters as one4all_topk_rows_reused and
  /// one4all_topk_rows_reevaluated; the memo must outlive `registry`'s
  /// scrapes.
  void RegisterMetrics(MetricsRegistry* registry);
  /// \brief Test/telemetry hook for the merge path in the runtime.
  void CountReuse(int64_t reused, int64_t reevaluated) {
    rows_reused_.fetch_add(reused, std::memory_order_relaxed);
    rows_reevaluated_.fetch_add(reevaluated, std::memory_order_relaxed);
  }

 private:
  struct PublishRecord {
    int64_t t = 0;
    bool all_dirty = false;  ///< no usable dirty info: assume everything
    DirtyTileSets dirty;     ///< per layer, [layer-1]; empty if all_dirty
  };

  struct Entry {
    Key key;
    int64_t t = -1;  ///< timestep the rows were evaluated at
    std::vector<Result<QueryRow>> rows;
    /// Per region: atomic bbox rounded out to the coarsest scale (the
    /// term-footprint superset checked against dirty sets).
    std::vector<CellRect> footprints;
  };

  CellRect FootprintOf(const GridMask& region) const;
  /// \brief True iff `record` cannot have changed any cell of `footprint`.
  bool FootprintClean(const CellRect& footprint,
                      const PublishRecord& record) const;

  const Hierarchy* hierarchy_;

  mutable std::mutex mu_;
  /// MRU-front LRU of memoized specs.
  std::list<Entry> entries_;
  /// Publish history, newest at the back; bounded by kHistory.
  std::deque<PublishRecord> publishes_;

  Counter rows_reused_;
  Counter rows_reevaluated_;
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_TOPK_MEMO_H_
