// Routing layer between a compiled QueryPlan and the shard fleet: which
// shard a region's resolution lives on (its home shard, owning the
// per-shard resolve-cache entry) and the EXPLAIN rendering of a plan's
// per-shard region split. Which shard evaluates each combination term
// is ShardMap::OwnerOf. Pure geometry over a ShardMap — no store or
// epoch state — so routing works whether shards are threads or
// processes.
#ifndef ONE4ALL_SHARD_SHARD_ROUTER_H_
#define ONE4ALL_SHARD_SHARD_ROUTER_H_

#include <string>

#include "query/query_planner.h"
#include "shard/shard_map.h"

namespace one4all {

class ShardRouter {
 public:
  /// \param map Must outlive the router.
  explicit ShardRouter(const ShardMap* map);

  /// \brief The shard holding a region's cached resolution: the owner of
  /// the region's first set atomic row. Any deterministic choice works
  /// (resolution never reads frames); tying it to the region's top edge
  /// spreads cache capacity across shards for spread-out workloads.
  /// O(words): the first set row comes from the first non-zero word.
  int HomeShard(const GridMask& region) const;

  /// \brief EXPLAIN extension for sharded execution: one line per plan
  /// slot with its home shard and the region's atomic-cell split across
  /// bands. Appended after QueryPlan::Describe()'s stage list.
  std::string DescribeSplit(const QueryPlan& plan) const;

  const ShardMap& map() const { return *map_; }

 private:
  const ShardMap* map_;
};

}  // namespace one4all

#endif  // ONE4ALL_SHARD_SHARD_ROUTER_H_
