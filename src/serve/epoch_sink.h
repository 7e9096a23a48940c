// The publication seam between the stream ingestor and the epoch
// substrate that serves queries: a ShardSet, which slices each frame
// across its N band-partitioned shards (one shard holds the whole
// frame) and flips them behind one barrier. The ingestor only ever sees
// this interface, so the shard count is invisible to the ingest loop.
#ifndef ONE4ALL_SERVE_EPOCH_SINK_H_
#define ONE4ALL_SERVE_EPOCH_SINK_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"

namespace one4all {

struct TraceContext;  // obs/trace.h

/// \brief One atomically-published epoch per call.
class EpochSink {
 public:
  virtual ~EpochSink() = default;

  /// \brief Stages the full multi-scale frame set of timestep `t`
  /// (frames[l-1] is layer l, [Hl, Wl]) and publishes it as one epoch no
  /// reader can observe half-done. A returned error is retryable: the
  /// staged epoch was aborted whole (store write refusal semantics), and
  /// re-calling with the same `t` is safe. `trace` (nullable) is the
  /// enclosing publish attempt's context; implementations nest their
  /// stage/publish spans under it.
  ///
  /// `dirty` (nullable) carries the ingestor's per-layer dirty sets of
  /// `t` vs. the previously published timestep, indexed [layer-1] like
  /// `frames`, always full-frame (shards re-slice them). Each set has
  /// 32x32 tile bits — implementations stage copy-on-write deltas from
  /// them (clean tiles alias the prior timestep's buffers, dirty tiles
  /// copy) instead of full frames — and, from DiffFrames, one bit per
  /// changed layer cell, which the serving runtime's publish tap hands
  /// to the top-k memo with `frames` (whose sums it checks for
  /// rounding). Null — or an empty/unknown per-layer entry —
  /// means "assume everything changed"; the published values are
  /// identical either way, only staging cost and memo reuse differ.
  virtual Status StageAndPublish(int64_t t,
                                 const std::vector<Tensor>& frames,
                                 const DirtyTileSets* dirty,
                                 bool carry_forward,
                                 TraceContext* trace) = 0;

  /// \brief Convenience for pre-dirty-tracking callers: stage everything
  /// fresh.
  Status StageAndPublish(int64_t t, const std::vector<Tensor>& frames,
                         bool carry_forward, TraceContext* trace) {
    return StageAndPublish(t, frames, nullptr, carry_forward, trace);
  }
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_EPOCH_SINK_H_
