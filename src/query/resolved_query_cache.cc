#include "query/resolved_query_cache.h"

#include <algorithm>

namespace one4all {

namespace {

inline uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

RegionFingerprint FingerprintRegion(const GridMask& region,
                                    QueryStrategy strategy) {
  // Two lanes with distinct seeds, advanced together in one sweep. The
  // key is (strategy, extents, every non-zero word with its index):
  // GridMask stores cells packed 64 per word in row-major bit order with
  // zeroed trailing bits, so given the extents that sequence names the
  // mask exactly. Every non-zero word lies in the mask's word span, so
  // the sweep reads only the span and its cost follows the region's set
  // words rather than the raster size; the value is the same as a sweep
  // over every word.
  const uint64_t s = static_cast<uint64_t>(strategy);
  uint64_t lo = Mix64(0x0123456789abcdefull ^ s);
  uint64_t hi = Mix64(0xfedcba9876543210ull ^ s);
  const uint64_t h = static_cast<uint64_t>(region.height());
  const uint64_t w = static_cast<uint64_t>(region.width());
  lo = Mix64(Mix64(lo ^ h) ^ w);
  hi = Mix64(Mix64(hi ^ h) ^ w);
  const std::vector<uint64_t>& words = region.words();
  for (size_t i = region.span_begin(); i < region.span_end(); ++i) {
    const uint64_t word = words[i];
    if (word == 0) continue;
    lo = Mix64(Mix64(lo ^ i) ^ word);
    hi = Mix64(Mix64(hi ^ i) ^ word);
  }
  return RegionFingerprint{lo, hi};
}

ResolvedQueryCache::ResolvedQueryCache(ResolvedQueryCacheOptions options) {
  const size_t num_shards =
      static_cast<size_t>(std::max(1, options.num_shards));
  const size_t requested = std::max<size_t>(num_shards, options.capacity);
  // Ceil so the effective capacity never undershoots the request;
  // capacity() reports what the shards can actually hold.
  per_shard_capacity_ = (requested + num_shards - 1) / num_shards;
  capacity_ = per_shard_capacity_ * num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const ResolvedQuery> ResolvedQueryCache::Get(
    const RegionFingerprint& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ResolvedQueryCache::Put(const RegionFingerprint& key,
                             std::shared_ptr<const ResolvedQuery> value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.map.size() >= per_shard_capacity_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.map.emplace(key, shard.lru.begin());
}

ResolvedQueryCacheStats ResolvedQueryCache::Stats() const {
  ResolvedQueryCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.size = Size();
  return stats;
}

size_t ResolvedQueryCache::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

void ResolvedQueryCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
  }
}

void ResolvedQueryCache::Invalidate() {
  Clear();
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void ResolvedQueryCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace one4all
