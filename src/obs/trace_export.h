// Exporters for recorded trace events: Chrome/Perfetto `trace_event`
// JSON (load the file in ui.perfetto.dev or chrome://tracing), a human
// slowest-N span-tree renderer with per-stage self-times, and a
// per-span-name aggregation used for stage-attributed latency
// breakdowns in benchmarks.
#ifndef ONE4ALL_OBS_TRACE_EXPORT_H_
#define ONE4ALL_OBS_TRACE_EXPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/trace.h"

namespace one4all {

/// \brief Chrome trace_event JSON ("X" complete events, microsecond
/// timestamps). `dropped_events` is surfaced in otherData so a truncated
/// ring is visible in the trace viewer, never silent.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            int64_t dropped_events);

Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            int64_t dropped_events);

/// \brief Sum/count of span durations keyed by SpanName value.
struct SpanAggregate {
  int64_t count = 0;
  double total_micros = 0.0;

  double MeanMicros() const {
    return count == 0 ? 0.0
                      : total_micros / static_cast<double>(count);
  }
};

std::array<SpanAggregate, kNumSpanNames> AggregateBySpanName(
    const std::vector<TraceEvent>& events);

/// \brief One span of a reassembled trace tree.
struct SpanTreeNode {
  const TraceEvent* event = nullptr;
  std::vector<size_t> children;  ///< node indices, by start time
  /// Duration minus the direct children's durations, floored at 0.
  uint64_t self_nanos = 0;
};

/// \brief Recorded events reassembled into span trees: nodes[i] wraps
/// events[i] (which must outlive the forest). A span whose parent was
/// evicted from the ring before the snapshot is an orphan: in no tree.
struct SpanForest {
  std::vector<SpanTreeNode> nodes;
  std::vector<size_t> roots;
  size_t orphans = 0;
};

SpanForest BuildSpanForest(const std::vector<TraceEvent>& events);

/// \brief Renders the `slowest` longest root spans as indented trees:
/// each line shows the span, its duration and its self-time (duration
/// minus direct children). Children orphaned by ring eviction are noted.
std::string RenderSlowestTraceTrees(const std::vector<TraceEvent>& events,
                                    int slowest, int64_t dropped_events);

}  // namespace one4all

#endif  // ONE4ALL_OBS_TRACE_EXPORT_H_
