#include "query/topk_memo.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"

namespace one4all {

namespace {

/// Folds `v` into the running key hash (boost::hash_combine's step).
void HashCombine(uint64_t v, uint64_t* h) {
  *h ^= v + 0x9e3779b97f4a7c15ull + (*h << 6) + (*h >> 2);
}

}  // namespace

TopKMemo::TopKMemo(const Hierarchy* hierarchy) : hierarchy_(hierarchy) {
  O4A_CHECK(hierarchy != nullptr);
}

bool TopKMemo::Key::operator==(const Key& other) const {
  return hash == other.hash && aggregation == other.aggregation &&
         strategy == other.strategy && eval_path == other.eval_path &&
         top_k == other.top_k && keep_series == other.keep_series &&
         rows == other.rows;
}

TopKMemo::Key TopKMemo::KeyFor(const QueryPlan& plan) {
  const QuerySpec& spec = plan.spec;
  Key key;
  key.aggregation = spec.aggregation;
  key.strategy = spec.strategy;
  key.eval_path = spec.eval_path;
  key.top_k = spec.top_k;
  key.keep_series = spec.keep_series;
  uint64_t h = 0;
  HashCombine(static_cast<uint64_t>(key.aggregation), &h);
  HashCombine(static_cast<uint64_t>(key.strategy), &h);
  HashCombine(static_cast<uint64_t>(key.eval_path), &h);
  HashCombine(static_cast<uint64_t>(key.top_k), &h);
  HashCombine(key.keep_series ? 1 : 0, &h);
  key.rows.reserve(plan.rows.size());
  for (const PlanRow& row : plan.rows) {
    const RegionFingerprint& fp =
        plan.slot_fingerprints[static_cast<size_t>(row.region_slot)];
    key.rows.push_back(fp);
    HashCombine(fp.lo, &h);
    HashCombine(fp.hi, &h);
  }
  key.hash = h;
  return key;
}

void TopKMemo::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter("one4all_topk_rows_reused",
                            "Top-k rows carried over from the memo", "",
                            &rows_reused_);
  registry->RegisterCounter("one4all_topk_rows_reevaluated",
                            "Top-k rows of a memo hit re-gathered because "
                            "churn touched their footprint",
                            "", &rows_reevaluated_);
}

CellRect TopKMemo::FootprintOf(const GridMask& region) const {
  // Atomic bounding box of the set cells...
  int64_t r0 = region.height(), r1 = 0, c0 = region.width(), c1 = 0;
  const std::vector<uint64_t>& words = region.words();
  const int64_t w = region.width();
  for (size_t wi = region.span_begin(); wi < region.span_end(); ++wi) {
    uint64_t word = words[wi];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      word &= word - 1;
      const int64_t cell = static_cast<int64_t>(wi) * 64 + bit;
      const int64_t r = cell / w, c = cell % w;
      r0 = std::min(r0, r);
      r1 = std::max(r1, r + 1);
      c0 = std::min(c0, c);
      c1 = std::max(c1, c + 1);
    }
  }
  if (r1 <= r0) return CellRect{0, 0, 0, 0};  // empty region
  // ...rounded out to the coarsest layer's grid boundaries: every union
  // grid the planner can pick intersects the region, so its atomic
  // extent — and that of any subtraction grid nested inside it — stays
  // within this expansion.
  const int64_t scale = hierarchy_->layer(hierarchy_->num_layers()).scale;
  CellRect fp;
  fp.r0 = (r0 / scale) * scale;
  fp.c0 = (c0 / scale) * scale;
  fp.r1 = std::min(((r1 + scale - 1) / scale) * scale,
                   hierarchy_->atomic_height());
  fp.c1 = std::min(((c1 + scale - 1) / scale) * scale,
                   hierarchy_->atomic_width());
  return fp;
}

bool TopKMemo::FootprintClean(const CellRect& footprint,
                              const PublishRecord& record) const {
  if (record.all_dirty) return false;
  if (footprint.Area() == 0) return true;
  for (int l = 1; l <= hierarchy_->num_layers(); ++l) {
    if (static_cast<size_t>(l) > record.dirty.size()) return false;
    const TileDirtySet& dirty = record.dirty[static_cast<size_t>(l) - 1];
    const int64_t scale = hierarchy_->layer(l).scale;
    // Cell-exact where the diff carried cell bits, tile-level where it
    // did not; an unknown set (a layer the publish carried no diff
    // for) counts as churned.
    if (dirty.CellsIntersectRect(footprint.r0 / scale, footprint.c0 / scale,
                                 (footprint.r1 + scale - 1) / scale,
                                 (footprint.c1 + scale - 1) / scale)) {
      return false;
    }
  }
  return true;
}

void TopKMemo::OnPublish(int64_t t, const DirtyTileSets* dirty) {
  PublishRecord record;
  record.t = t;
  // Only an entry memoized before t reads this record's dirty sets, so
  // with no entry the copy (tile bits plus one bit per layer cell: ~3 KB
  // per publish for a 128x128 six-layer stack) is skipped and the record
  // counts as all dirty. An entry stored meanwhile at an older t then
  // finds every row stale: conservative, never wrong.
  bool have_entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    have_entries = !entries_.empty();
  }
  if (dirty == nullptr || !have_entries) {
    record.all_dirty = true;
  } else {
    record.dirty = *dirty;
  }
  std::lock_guard<std::mutex> lock(mu_);
  publishes_.push_back(std::move(record));
  while (publishes_.size() > kHistory) publishes_.pop_front();
}

void TopKMemo::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  publishes_.clear();
}

TopKMemo::Probe TopKMemo::Lookup(const Key& key, int64_t t) {
  Probe probe;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.begin();
  for (; it != entries_.end(); ++it) {
    if (it->key == key) break;
  }
  if (it == entries_.end()) return probe;
  entries_.splice(entries_.begin(), entries_, it);  // LRU touch
  const Entry& entry = entries_.front();

  if (t < entry.t) return probe;  // looking backwards: no reuse claim

  // Publishes strictly inside (entry.t, t], oldest first. The proof
  // needs every one of them: a gap (history evicted, or the writer
  // skipped timesteps) means unseen churn, so nothing can be reused.
  std::vector<const PublishRecord*> since;
  for (const PublishRecord& record : publishes_) {
    if (record.t > entry.t && record.t <= t) since.push_back(&record);
  }
  if (static_cast<int64_t>(since.size()) != t - entry.t) return probe;

  probe.hit = true;
  probe.memo_t = entry.t;
  probe.rows = entry.rows;
  probe.clean.assign(entry.rows.size(), true);
  if (since.empty()) return probe;  // same timestep: every row holds
  for (size_t i = 0; i < entry.footprints.size(); ++i) {
    for (const PublishRecord* record : since) {
      if (!FootprintClean(entry.footprints[i], *record)) {
        probe.clean[i] = false;
        break;
      }
    }
  }
  return probe;
}

void TopKMemo::Store(Key key, int64_t t, const std::vector<GridMask>& regions,
                     const std::vector<Result<QueryRow>>& rows) {
  if (rows.size() != key.rows.size() || regions.size() != key.rows.size()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      it->t = t;
      it->rows = rows;
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
  }
  Entry entry;
  entry.key = std::move(key);
  entry.t = t;
  entry.rows = rows;
  entry.footprints.reserve(regions.size());
  for (const GridMask& region : regions) {
    entry.footprints.push_back(FootprintOf(region));
  }
  entries_.push_front(std::move(entry));
  while (entries_.size() > kCapacity) entries_.pop_back();
}

std::vector<int> TopKMemo::RankRows(const std::vector<Result<QueryRow>>& rows,
                                    int k) {
  // Mirrors query_internal::RankTopK exactly: value descending, ties
  // toward the lower row index, failed rows skipped, clamped to k.
  std::vector<int> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].ok()) order.push_back(static_cast<int>(i));
  }
  const size_t kept = std::min(order.size(), static_cast<size_t>(k));
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<int64_t>(kept), order.end(),
                    [&](int a, int b) {
                      const double va = rows[static_cast<size_t>(a)]->value;
                      const double vb = rows[static_cast<size_t>(b)]->value;
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(kept);
  return order;
}

}  // namespace one4all
