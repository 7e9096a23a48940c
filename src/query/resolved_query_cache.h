// Sharded LRU cache of resolved region queries. Resolving a region
// (decomposition + quad-tree retrieval) is time-independent, so production
// traffic that re-queries the same areal units across time slots can skip
// both steps entirely: the cache maps a region-mask fingerprint (plus the
// query strategy) to the signed combination terms.
#ifndef ONE4ALL_QUERY_RESOLVED_QUERY_CACHE_H_
#define ONE4ALL_QUERY_RESOLVED_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/mask.h"
#include "query/query_server.h"

namespace one4all {

/// \brief 128-bit content fingerprint of a (region mask, strategy) pair.
///
/// Two independently seeded 64-bit mixes over the mask's extents and its
/// non-zero words (each with its word index); the probability of a
/// collision across realistic cache populations is negligible. The
/// planner computes it once per distinct region (QueryPlan::
/// slot_fingerprints); the resolve cache and the top-k memo key on it.
struct RegionFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const RegionFingerprint& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// \brief The one mask hash: O(words) zero tests plus two mixes per lane
/// per non-zero word, so a small region on a large raster costs little.
RegionFingerprint FingerprintRegion(const GridMask& region,
                                    QueryStrategy strategy);

/// \brief Hash functor for RegionFingerprint keys — shared by the cache
/// shards and the query planner's region-dedup map.
struct RegionFingerprintHash {
  size_t operator()(const RegionFingerprint& k) const {
    return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
  }
};

struct ResolvedQueryCacheOptions {
  size_t capacity = 4096;  ///< total entries across all shards
  int num_shards = 8;      ///< clamped to >= 1
};

/// \brief Monotonic counters; `size` is the instantaneous entry count.
struct ResolvedQueryCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;  ///< full clears via Invalidate()
  size_t size = 0;

  /// \brief Fraction of lookups served from the cache. Guarded: an idle
  /// runtime (zero lookups) reports 0.0, never a divide-by-zero NaN.
  double hit_rate() const {
    const int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Thread-safe LRU keyed by RegionFingerprint, sharded to keep
/// lock contention off the hot path. Values are shared_ptr so a hit never
/// copies the term list and eviction cannot invalidate in-flight readers.
class ResolvedQueryCache {
 public:
  explicit ResolvedQueryCache(ResolvedQueryCacheOptions options = {});

  ResolvedQueryCache(const ResolvedQueryCache&) = delete;
  ResolvedQueryCache& operator=(const ResolvedQueryCache&) = delete;

  /// \brief Returns the cached resolution or nullptr; counts hit/miss and
  /// refreshes recency on hit.
  std::shared_ptr<const ResolvedQuery> Get(const RegionFingerprint& key);

  /// \brief Inserts or refreshes; evicts the least-recent entry of the
  /// key's shard when that shard is full.
  void Put(const RegionFingerprint& key,
           std::shared_ptr<const ResolvedQuery> value);

  ResolvedQueryCacheStats Stats() const;
  size_t Size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// \brief Full clear for topology changes: resolutions depend only on
  /// the hierarchy and quad-tree index, so the serving runtime calls this
  /// when the index is swapped. Epoch rolls are time-only and must NOT
  /// invalidate (resolution is time-independent). Counted in
  /// Stats().invalidations.
  void Invalidate();

  /// \brief Zeroes the hit/miss/eviction/invalidation counters while
  /// keeping every cached entry — bench warmup isolation: warm the cache,
  /// reset the stats, then measure the steady state alone.
  void ResetStats();

 private:
  using LruList = std::list<
      std::pair<RegionFingerprint, std::shared_ptr<const ResolvedQuery>>>;
  struct Shard {
    std::mutex mu;
    LruList lru;  ///< front = most recently used
    std::unordered_map<RegionFingerprint, LruList::iterator,
                       RegionFingerprintHash>
        map;
  };

  Shard& ShardFor(const RegionFingerprint& key) {
    return *shards_[static_cast<size_t>(key.hi % shards_.size())];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace one4all

#endif  // ONE4ALL_QUERY_RESOLVED_QUERY_CACHE_H_
