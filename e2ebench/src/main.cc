// e2ebench: one workload of the end-to-end serving benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//            [--setup-only] [--git-sha <sha>]
//
// Prints each metric as "name = value unit", then the run envelope, then
// one JSON line {"correct", "attempted", "failed", "metrics", "envelope"}.
// Exits non-zero when an answer disagrees with the oracle.
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workload.h"

namespace {

int Usage() {
  std::cerr << "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "[--trace 0|1] [--setup-only] [--git-sha <sha>]\nworkloads:";
  for (const auto& name : e2ebench::WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--git-sha" && has_value) {
      options.git_sha = argv[++i];
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const auto& name : e2ebench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known || options.seconds <= 0.0) return Usage();

  const e2ebench::RunResult result = e2ebench::RunWorkload(options);

  std::ostringstream metrics;
  metrics << std::setprecision(10);
  bool first = true;
  for (const auto& m : result.metrics) {
    std::cout << "  " << std::left << std::setw(30) << m.name << " = "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
    metrics << (first ? "" : ", ") << "\"" << m.name
            << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
            << "\"}";
    first = false;
  }
  std::cout << "  correct = " << (result.correct ? "true" : "false")
            << ", rows attempted = " << result.attempted
            << ", rows failed = " << result.failed << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics.str() << "}, \"envelope\": {" << result.envelope_json
            << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
