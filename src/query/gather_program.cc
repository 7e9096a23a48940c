#include "query/gather_program.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "tensor/tiled_sat.h"

namespace one4all {

namespace {

/// \brief A maximal vertical merge of identical horizontal runs:
/// rows [r0, r1) x columns [c0, c1) of one (layer, sign) group.
struct PendingRect {
  int64_t r0 = 0, c0 = 0, r1 = 0, c1 = 0;
};

/// \brief Emits a closed rectangle: big enough ones become SAT rect
/// reads, small ones fall back to per-cell residues (four corner reads
/// would not beat their handful of direct reads).
void EmitRect(const PendingRect& rect, int layer, int8_t sign,
              int64_t layer_width, GatherProgram* program) {
  const int64_t cells = (rect.r1 - rect.r0) * (rect.c1 - rect.c0);
  if (cells >= kMinSatRectCells) {
    SatRectRead read;
    read.layer = layer;
    read.r0 = rect.r0;
    read.c0 = rect.c0;
    read.r1 = rect.r1;
    read.c1 = rect.c1;
    read.sign = sign;
    program->rects.push_back(read);
    program->num_rect_terms += cells;
    return;
  }
  for (int64_t r = rect.r0; r < rect.r1; ++r) {
    for (int64_t c = rect.c0; c < rect.c1; ++c) {
      program->residues.push_back(
          ResidueRead{layer, 0, r * layer_width + c, 0, 0, sign});
    }
  }
}

}  // namespace

std::string GatherProgram::Summary() const {
  std::ostringstream out;
  out << rects.size() << (rects.size() == 1 ? " rect (" : " rects (")
      << num_rect_terms << " terms) + " << residues.size()
      << (residues.size() == 1 ? " residue" : " residues") << " over "
      << layers.size() << (layers.size() == 1 ? " layer" : " layers");
  return out.str();
}

GatherProgram CompileGatherProgram(const std::vector<CombinationTerm>& terms,
                                   const Hierarchy& hierarchy) {
  GatherProgram program;

  // Bucket term cells by (layer, sign); rect extraction must not merge
  // opposite signs, and a cell appearing twice with the same sign counts
  // twice (pieces are disjoint, but index combinations may repeat a
  // coarse grid), so duplicates are peeled off into residues first.
  std::map<std::pair<int, int8_t>, std::vector<std::pair<int64_t, int64_t>>>
      groups;
  for (const CombinationTerm& term : terms) {
    groups[{term.grid.layer, term.sign}].emplace_back(term.grid.row,
                                                      term.grid.col);
  }

  for (auto& [key, cells] : groups) {
    const int layer = key.first;
    const int8_t sign = key.second;
    const int64_t layer_width = hierarchy.layer(layer).width;
    std::sort(cells.begin(), cells.end());

    std::vector<std::pair<int64_t, int64_t>> unique;
    unique.reserve(cells.size());
    for (const auto& cell : cells) {
      if (unique.empty() || unique.back() != cell) {
        unique.push_back(cell);
      } else {
        program.residues.push_back(ResidueRead{
            layer, 0, cell.first * layer_width + cell.second, 0, 0, sign});
      }
    }

    // Horizontal runs per row (cells are (row, col)-sorted), merged
    // vertically while consecutive rows repeat the identical column
    // span — the greedy rect decomposition that collapses the border
    // runs of rect-decomposable regions into a few rectangles.
    std::vector<PendingRect> open;
    std::vector<PendingRect> next_open;
    size_t i = 0;
    while (i < unique.size()) {
      const int64_t row = unique[i].first;
      next_open.clear();
      size_t j = i;
      while (j < unique.size() && unique[j].first == row) {
        const int64_t c0 = unique[j].second;
        int64_t c1 = c0 + 1;
        ++j;
        while (j < unique.size() && unique[j].first == row &&
               unique[j].second == c1) {
          ++c1;
          ++j;
        }
        next_open.push_back(PendingRect{row, c0, row + 1, c1});
      }
      // Extend open rects whose span recurs in this row; close the rest.
      for (const PendingRect& prev : open) {
        bool extended = false;
        if (prev.r1 == row) {
          for (PendingRect& cur : next_open) {
            if (cur.c0 == prev.c0 && cur.c1 == prev.c1 &&
                cur.r0 == row) {
              cur.r0 = prev.r0;
              extended = true;
              break;
            }
          }
        }
        if (!extended) EmitRect(prev, layer, sign, layer_width, &program);
      }
      open.swap(next_open);
      i = j;
    }
    for (const PendingRect& rect : open) {
      EmitRect(rect, layer, sign, layer_width, &program);
    }
  }

  // Deterministic program order: layers ascending, reads ascending
  // within a layer (residues by flat offset, so every timestep adds them
  // in the same row-major sequence).
  std::sort(program.rects.begin(), program.rects.end(),
            [](const SatRectRead& a, const SatRectRead& b) {
              if (a.layer != b.layer) return a.layer < b.layer;
              if (a.r0 != b.r0) return a.r0 < b.r0;
              return a.c0 < b.c0;
            });
  std::sort(program.residues.begin(), program.residues.end(),
            [](const ResidueRead& a, const ResidueRead& b) {
              if (a.layer != b.layer) return a.layer < b.layer;
              return a.offset < b.offset;
            });

  for (const SatRectRead& read : program.rects) {
    if (program.layers.empty() ||
        program.layers.back().layer != read.layer) {
      program.layers.push_back(GatherLayerNeed{read.layer, false, false});
    }
    program.layers.back().needs_plane = true;
  }
  for (const ResidueRead& read : program.residues) {
    auto it = std::lower_bound(
        program.layers.begin(), program.layers.end(), read.layer,
        [](const GatherLayerNeed& need, int layer) {
          return need.layer < layer;
        });
    if (it == program.layers.end() || it->layer != read.layer) {
      it = program.layers.insert(
          it, GatherLayerNeed{read.layer, false, false});
    }
    it->needs_frame = true;
  }
  const auto index_of = [&](int layer) {
    return static_cast<int>(
        std::lower_bound(program.layers.begin(), program.layers.end(),
                         layer,
                         [](const GatherLayerNeed& need, int l) {
                           return need.layer < l;
                         }) -
        program.layers.begin());
  };
  for (SatRectRead& read : program.rects) {
    read.layer_index = index_of(read.layer);
  }
  for (ResidueRead& read : program.residues) {
    read.layer_index = index_of(read.layer);
    const int64_t layer_width = hierarchy.layer(read.layer).width;
    const TileAddress address = TileAddressOf(
        layer_width, read.offset / layer_width, read.offset % layer_width);
    read.tile = address.tile;
    read.in_tile = address.in_tile;
  }
  return program;
}

}  // namespace one4all
