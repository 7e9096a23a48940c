#include "scenario/verdict.h"

#include <cstdio>
#include <sstream>

namespace one4all {

namespace {

/// JSON string escaper for scenario names (ASCII control chars + quotes;
/// names come from our own specs, so this never needs full UTF-16 work).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* ShapeKey(int kind) {
  switch (static_cast<QuerySpecKind>(kind)) {
    case QuerySpecKind::kPointInTime: return "point";
    case QuerySpecKind::kTimeRange: return "time_range";
    case QuerySpecKind::kMultiRegion: return "multi_region";
    case QuerySpecKind::kTopK: return "top_k";
  }
  return "?";
}

}  // namespace

bool ScenarioVerdict::passed() const {
  for (const InvariantCheck& check : invariants) {
    if (!check.held) return false;
  }
  return true;
}

std::string ScenarioVerdict::CanonicalJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"scenario\": \"" << JsonEscape(scenario) << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"shapes\": {\n";
  for (int kind = 0; kind < kNumQuerySpecKinds; ++kind) {
    const ShapeOutcome& shape = shapes[static_cast<size_t>(kind)];
    os << "    \"" << ShapeKey(kind) << "\": {\"issued\": " << shape.issued
       << ", \"ok\": " << shape.ok << ", \"failed\": " << shape.failed
       << ", \"rejected\": " << shape.rejected << "}"
       << (kind + 1 < kNumQuerySpecKinds ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"rows_ok\": " << rows_ok << ",\n";
  os << "  \"rows_failed\": " << rows_failed << ",\n";
  os << "  \"value_mismatches\": " << value_mismatches << ",\n";
  os << "  \"rank_mismatches\": " << rank_mismatches << ",\n";
  if (staleness_min > staleness_max) {
    os << "  \"staleness\": null,\n";
  } else {
    os << "  \"staleness\": {\"min\": " << staleness_min
       << ", \"max\": " << staleness_max << "},\n";
  }
  os << "  \"epochs_published\": " << epochs_published << ",\n";
  os << "  \"epochs_reclaimed\": " << epochs_reclaimed << ",\n";
  os << "  \"publish_attempts\": " << publish_attempts << ",\n";
  os << "  \"publish_failures\": " << publish_failures << ",\n";
  os << "  \"invariants\": {\n";
  for (size_t i = 0; i < invariants.size(); ++i) {
    os << "    \"" << JsonEscape(invariants[i].name)
       << "\": " << (invariants[i].held ? "true" : "false")
       << (i + 1 < invariants.size() ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"passed\": " << (passed() ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

TablePrinter ScenarioVerdict::Render() const {
  TablePrinter table("Scenario verdict: " + scenario);
  table.SetHeader({"metric", "value"});
  table.AddRow({"seed", std::to_string(seed)});
  for (int kind = 0; kind < kNumQuerySpecKinds; ++kind) {
    const ShapeOutcome& shape = shapes[static_cast<size_t>(kind)];
    if (shape.issued == 0) continue;
    table.AddRow({std::string(ShapeKey(kind)) + " issued/ok/failed/rejected",
                  std::to_string(shape.issued) + "/" +
                      std::to_string(shape.ok) + "/" +
                      std::to_string(shape.failed) + "/" +
                      std::to_string(shape.rejected)});
  }
  table.AddSeparator();
  table.AddRow({"rows ok", std::to_string(rows_ok)});
  table.AddRow({"rows failed", std::to_string(rows_failed)});
  table.AddRow({"value mismatches", std::to_string(value_mismatches)});
  table.AddRow({"rank mismatches", std::to_string(rank_mismatches)});
  if (staleness_min <= staleness_max) {
    table.AddRow({"staleness min..max (steps)",
                  std::to_string(staleness_min) + ".." +
                      std::to_string(staleness_max)});
  }
  table.AddRow({"epochs published", std::to_string(epochs_published)});
  table.AddRow({"epochs reclaimed", std::to_string(epochs_reclaimed)});
  table.AddRow({"publish attempts", std::to_string(publish_attempts)});
  table.AddRow({"publish failures", std::to_string(publish_failures)});
  table.AddSeparator();
  for (const InvariantCheck& check : invariants) {
    std::string value = check.held ? "held" : "VIOLATED";
    if (!check.held && !check.detail.empty()) {
      value += " (" + check.detail + ")";
    }
    table.AddRow({check.name, value});
  }
  table.AddSeparator();
  table.AddRow({"query p50 (us, advisory)", TablePrinter::Num(query_p50_micros, 1)});
  table.AddRow({"query p99 (us, advisory)", TablePrinter::Num(query_p99_micros, 1)});
  table.AddRow({"wall (ms, advisory)", TablePrinter::Num(wall_ms, 1)});
  table.AddRow({"verdict", passed() ? "PASS" : "FAIL"});
  return table;
}

}  // namespace one4all
