// Compiled gather form of a resolved region query: the per-term list a
// resolution produces (one signed frame cell per term) folded into
//   - SAT rect reads: maximal axis-aligned rectangles of same-sign terms
//     within one layer, each answered by a four-corner read of that
//     layer's summed-area plane (TiledSatPlane, tensor/tiled_sat.h) —
//     O(#rects) however many cells the rectangles cover, and
//   - residue reads: the irregular leftovers, each addressed as a
//     (tile, in-tile offset) pair into the layer's copy-on-write tiled
//     frame (tensor/tiled_sat.h), precomputed once at resolve time and
//     kept in flat-offset order so every timestep adds them in the same
//     sequence.
// Compiled once per resolution (and therefore cached with it in the
// ResolvedQueryCache); the QueryExecutor interprets it against the
// epoch-pinned frame/plane set, clipping rect reads to shard bands and
// re-addressing residues band-locally at N > 1.
#ifndef ONE4ALL_QUERY_GATHER_PROGRAM_H_
#define ONE4ALL_QUERY_GATHER_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "combine/combination.h"
#include "grid/hierarchy.h"

namespace one4all {

/// \brief Cells per rectangle below which a rect stays in the residue
/// stream: a four-corner plane read only beats per-cell frame reads once
/// the rectangle covers more cells than corners.
constexpr int64_t kMinSatRectCells = 4;

/// \brief One four-corner summed-area read: the signed sum of a layer
/// frame over the half-open rectangle [r0, r1) x [c0, c1).
struct SatRectRead {
  int layer = 1;
  int layer_index = 0;  ///< index into GatherProgram::layers
  int64_t r0 = 0, c0 = 0, r1 = 0, c1 = 0;
  int8_t sign = 1;

  int64_t num_cells() const { return (r1 - r0) * (c1 - c0); }
};

/// \brief One signed single-cell read of the layer frame. `offset` is
/// the flat cell index (row * layer_width + col) the program is ordered
/// by; `tile` / `in_tile` are the same cell's TileAddressOf, the address
/// the executor reads through in place.
struct ResidueRead {
  int layer = 1;
  int layer_index = 0;  ///< index into GatherProgram::layers
  int64_t offset = 0;
  int32_t tile = 0;
  int32_t in_tile = 0;
  int8_t sign = 1;
};

/// \brief What a layer contributes to the program: rect reads from its
/// summed-area plane, residue reads from its frame, or both. The
/// executor pins a layer's frame and plane in one store read either way.
struct GatherLayerNeed {
  int layer = 1;
  bool needs_plane = false;  ///< the program has rect reads at this layer
  bool needs_frame = false;  ///< the program has residue reads here
};

/// \brief The full compiled gather of one resolution. Evaluating it at
/// timestep t (rects via planes, residues via frames, layers ascending)
/// gives the same bits as the per-term sum over the same (layer, t)
/// frames: stored cells are multiples of 2^-20, so no sum rounds and the
/// order of the additions does not matter (tensor/tiled_sat.h).
struct GatherProgram {
  std::vector<SatRectRead> rects;      ///< layer-ascending
  std::vector<ResidueRead> residues;   ///< (layer, offset)-ascending
  std::vector<GatherLayerNeed> layers; ///< distinct layers, ascending
  int64_t num_rect_terms = 0;  ///< terms folded into `rects`

  bool empty() const { return rects.empty() && residues.empty(); }
  /// \brief Reads the executor performs per timestep at one shard (4 per
  /// rect + 1 per residue) — the interpreter's analogue of the term
  /// count.
  int64_t num_reads() const {
    return 4 * static_cast<int64_t>(rects.size()) +
           static_cast<int64_t>(residues.size());
  }

  /// \brief One-line compilation summary ("3 rects (58 terms) + 7
  /// residues over 4 layers") for EXPLAIN output.
  std::string Summary() const;
};

/// \brief Compiles resolved combination terms into a gather program.
/// Same-layer, same-sign terms forming axis-aligned rectangles of at
/// least kMinSatRectCells cells become SAT rect reads; everything else
/// (small rects, scattered cells, duplicate terms) becomes residue
/// reads. The decomposition is exact: evaluating the program reproduces
/// the signed per-term sum.
GatherProgram CompileGatherProgram(const std::vector<CombinationTerm>& terms,
                                   const Hierarchy& hierarchy);

}  // namespace one4all

#endif  // ONE4ALL_QUERY_GATHER_PROGRAM_H_
