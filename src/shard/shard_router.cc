#include "shard/shard_router.h"

#include <sstream>

#include "core/logging.h"

namespace one4all {

ShardRouter::ShardRouter(const ShardMap* map) : map_(map) {
  O4A_CHECK(map != nullptr);
}

int ShardRouter::HomeShard(const GridMask& region) const {
  const int64_t row = region.FirstSetRow();
  // Empty regions (planner validation rejects these) go to shard 0.
  return row < 0 ? 0 : map_->OwnerOfAtomicRow(row);
}

std::string ShardRouter::DescribeSplit(const QueryPlan& plan) const {
  std::ostringstream out;
  out << "  4. shard scatter: " << map_->num_shards()
      << " band shards, rects clipped to bands and read from the owners'"
         " band planes, residues read from the owner's band frame\n";
  for (size_t s = 0; s < plan.slot_regions.size(); ++s) {
    const GridMask& region = plan.RegionForSlot(static_cast<int>(s));
    const std::vector<int64_t> split = map_->SplitRegionCells(region);
    out << "     slot " << s << ": home shard " << HomeShard(region)
        << ", atomic cells by shard [";
    for (size_t k = 0; k < split.size(); ++k) {
      if (k > 0) out << ", ";
      out << split[k];
    }
    out << "]\n";
  }
  return out.str();
}

}  // namespace one4all
