// Internal execution helper of the QueryExecutor: the per-plan
// prediction-frame memo its exact cell loop folds terms through, at
// every shard count. One memo and one fold, so every shard count reads
// frames the same way and sums terms with byte-identical arithmetic
// (same cell values, same accumulation order).
#ifndef ONE4ALL_QUERY_FRAME_MEMO_H_
#define ONE4ALL_QUERY_FRAME_MEMO_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "kvstore/prediction_store.h"
#include "query/query_executor.h"
#include "query/query_server.h"

namespace one4all {
namespace query_internal {

/// \brief Where one combination term reads its cell: row `row` of shard
/// `shard`'s frame of the term's layer (the column is the grid column).
struct TermAddress {
  int shard = 0;
  int64_t row = 0;
};

/// \brief Per-plan memo of pinned prediction frames: one store fetch
/// per (shard, layer, t) instead of one per combination term, and no
/// cell copy at all — each entry pins the tiled copy-on-write frame the
/// shard's store holds and terms read their cell through its tile table.
///
/// A flat key-sorted vector, not a map: the memo holds a handful of
/// frames (shards x layers x timesteps of one plan), so binary
/// search over contiguous keys beats pointer-chasing map nodes, and
/// inserting shifts only (key, shared_ptr) pairs.
class FrameMemo {
 public:
  /// \brief Shard k's frames come from shards[k].store under
  /// shards[k].generation. `shards` must outlive the memo.
  explicit FrameMemo(const std::vector<ShardReadView>& shards)
      : shards_(shards) {}

  /// \brief Shard `shard`'s frame of (layer, t), pinned from its store on
  /// first use. The pointer stays valid for the memo's lifetime — the
  /// memo's pin keeps the frame alive even if its generation is
  /// reclaimed.
  Result<const TiledFrame*> Get(int shard, int layer, int64_t t) {
    const Key key = KeyOf(shard, layer, t);
    auto it = Find(key);
    if (it != frames_.end() && it->first == key) return it->second.get();
    const ShardReadView& view = shards_[static_cast<size_t>(shard)];
    Result<std::shared_ptr<const TiledFrame>> frame =
        view.store->GetTiledFrameAt(view.generation, layer, t);
    O4A_RETURN_NOT_OK(frame.status());
    return frames_.insert(it, Entry{key, frame.MoveValueUnsafe()})
        ->second.get();
  }

  /// \brief Sums signed term predictions at `t` from shard 0 at each
  /// term's grid row (one shard holding the whole grid; same term order
  /// as RegionQueryServer::EvaluateTerms, so values match it exactly).
  Status Evaluate(const std::vector<CombinationTerm>& terms, int64_t t,
                  double* value) {
    return Fold(terms, t, value, [](size_t, const GridId& grid) {
      return TermAddress{0, grid.row};
    });
  }

  /// \brief The same fold with term i read at `addresses[i]` (its owner
  /// shard and band-local row): the same canonical term order and the
  /// same `acc += sign * value`, so the sum is bit-identical to the
  /// one-store fold over the unsliced frames.
  Status Evaluate(const std::vector<CombinationTerm>& terms,
                  const std::vector<TermAddress>& addresses, int64_t t,
                  double* value) {
    return Fold(terms, t, value,
                [&](size_t i, const GridId&) { return addresses[i]; });
  }

 private:
  /// (shard << 16 | layer, t): the shard rides in the layer's high
  /// bits (layers number far below 2^16), so a key compares as cheaply
  /// as a one-store (layer, t) pair — the lookup every term pays.
  using Key = std::pair<int, int64_t>;
  using Entry = std::pair<Key, std::shared_ptr<const TiledFrame>>;

  static Key KeyOf(int shard, int layer, int64_t t) {
    return Key{(shard << 16) | layer, t};
  }

  std::vector<Entry>::iterator Find(const Key& key) {
    return std::lower_bound(
        frames_.begin(), frames_.end(), key,
        [](const Entry& e, const Key& k) { return e.first < k; });
  }

  /// Left-to-right `acc += sign * cell`; a failing read returns its
  /// status, so a row fails on its first unreadable term.
  template <typename AddressOf>
  Status Fold(const std::vector<CombinationTerm>& terms, int64_t t,
              double* value, AddressOf address_of) {
    double acc = 0.0;
    for (size_t i = 0; i < terms.size(); ++i) {
      const CombinationTerm& term = terms[i];
      const TermAddress at = address_of(i, term.grid);
      // Memo hits (nearly every term) stay inline; only a miss pins.
      const Key key = KeyOf(at.shard, term.grid.layer, t);
      auto it = Find(key);
      const TiledFrame* frame = nullptr;
      if (it != frames_.end() && it->first == key) {
        frame = it->second.get();
      } else {
        O4A_ASSIGN_OR_RETURN(frame, Get(at.shard, term.grid.layer, t));
      }
      acc += static_cast<double>(term.sign) *
             frame->at(at.row, term.grid.col);
    }
    *value = acc;
    return Status::OK();
  }

  const std::vector<ShardReadView>& shards_;
  std::vector<Entry> frames_;  ///< key-ascending
};

}  // namespace query_internal
}  // namespace one4all

#endif  // ONE4ALL_QUERY_FRAME_MEMO_H_
