#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace one4all {

namespace {
std::string Micros(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(nanos) / 1e3);
  return buf;
}

SpanName EventName(const TraceEvent& event) {
  return static_cast<SpanName>(event.name);
}

void RenderNode(const std::vector<SpanTreeNode>& nodes, size_t index,
                int depth, std::ostringstream& out) {
  const SpanTreeNode& node = nodes[index];
  const TraceEvent& event = *node.event;
  for (int i = 0; i < depth; ++i) out << "  ";
  out << SpanNameString(EventName(event)) << "  "
      << Micros(event.duration_nanos) << " us";
  if (!node.children.empty()) {
    out << "  (self " << Micros(node.self_nanos) << " us)";
  }
  if (event.arg != 0) out << "  [arg=" << event.arg << "]";
  out << "\n";
  for (size_t child : node.children) {
    RenderNode(nodes, child, depth + 1, out);
  }
}
}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            int64_t dropped_events) {
  std::ostringstream out;
  out << "{\n"
      << "  \"displayTimeUnit\": \"ms\",\n"
      << "  \"otherData\": {\"dropped_events\": " << dropped_events
      << ", \"exported_events\": " << events.size() << "},\n"
      << "  \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"name\": \"" << SpanNameString(EventName(event))
        << "\", \"cat\": \""
        << SpanCategoryString(static_cast<SpanCategory>(event.category))
        << "\", \"ph\": \"X\", \"ts\": " << Micros(event.start_nanos)
        << ", \"dur\": " << Micros(event.duration_nanos)
        << ", \"pid\": 1, \"tid\": " << event.thread_id
        << ", \"args\": {\"trace_id\": " << event.trace_id
        << ", \"span_id\": " << event.span_id
        << ", \"parent_id\": " << event.parent_id
        << ", \"arg\": " << event.arg << "}}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            int64_t dropped_events) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open trace file: " + path);
  }
  out << ChromeTraceJson(events, dropped_events);
  out.flush();
  if (!out) {
    return Status::IOError("failed writing trace file: " + path);
  }
  return Status::OK();
}

std::array<SpanAggregate, kNumSpanNames> AggregateBySpanName(
    const std::vector<TraceEvent>& events) {
  std::array<SpanAggregate, kNumSpanNames> aggregates{};
  for (const TraceEvent& event : events) {
    if (event.name >= kNumSpanNames) continue;
    SpanAggregate& agg = aggregates[event.name];
    agg.count += 1;
    agg.total_micros += static_cast<double>(event.duration_nanos) / 1e3;
  }
  return aggregates;
}

SpanForest BuildSpanForest(const std::vector<TraceEvent>& events) {
  SpanForest forest;
  std::vector<SpanTreeNode>& nodes = forest.nodes;
  nodes.resize(events.size());
  std::map<uint64_t, size_t> by_span_id;
  for (size_t i = 0; i < events.size(); ++i) {
    nodes[i].event = &events[i];
    by_span_id[events[i].span_id] = i;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent_id == 0) {
      forest.roots.push_back(i);
      continue;
    }
    auto parent = by_span_id.find(events[i].parent_id);
    if (parent == by_span_id.end() ||
        events[parent->second].trace_id != events[i].trace_id) {
      ++forest.orphans;  // parent evicted from the ring before the snapshot
      continue;
    }
    nodes[parent->second].children.push_back(i);
  }
  // Children recorded before their parents closed: order each tree level
  // by start time so walks read chronologically.
  for (SpanTreeNode& node : nodes) {
    std::sort(node.children.begin(), node.children.end(),
              [&nodes](size_t a, size_t b) {
                return nodes[a].event->start_nanos <
                       nodes[b].event->start_nanos;
              });
    uint64_t child_nanos = 0;
    for (size_t child : node.children) {
      child_nanos += nodes[child].event->duration_nanos;
    }
    node.self_nanos = node.event->duration_nanos > child_nanos
                          ? node.event->duration_nanos - child_nanos
                          : 0;
  }
  return forest;
}

std::string RenderSlowestTraceTrees(const std::vector<TraceEvent>& events,
                                    int slowest, int64_t dropped_events) {
  SpanForest forest = BuildSpanForest(events);
  const std::vector<SpanTreeNode>& nodes = forest.nodes;
  std::vector<size_t>& roots = forest.roots;
  std::sort(roots.begin(), roots.end(), [&nodes](size_t a, size_t b) {
    return nodes[a].event->duration_nanos >
           nodes[b].event->duration_nanos;
  });
  if (slowest > 0 && roots.size() > static_cast<size_t>(slowest)) {
    roots.resize(static_cast<size_t>(slowest));
  }

  std::ostringstream out;
  out << "Slowest " << roots.size() << " trace(s) of " << events.size()
      << " recorded span(s); " << dropped_events
      << " event(s) dropped by the ring";
  if (forest.orphans > 0) {
    out << "; " << forest.orphans << " span(s) orphaned by eviction";
  }
  out << "\n";
  int rank = 1;
  for (size_t root : roots) {
    const TraceEvent& event = *nodes[root].event;
    out << "\n#" << rank++ << "  trace " << event.trace_id << "  ("
        << SpanCategoryString(static_cast<SpanCategory>(event.category))
        << ", thread " << event.thread_id << ")\n";
    RenderNode(nodes, root, 1, out);
  }
  return out.str();
}

}  // namespace one4all
