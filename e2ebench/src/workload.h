// The benchmark's workloads: input generation from the seed, the timed
// set-up of a real ServingRuntime, the open-loop / closed-loop phases, the
// oracle check of every answered row, and the traced replay that
// attributes time to the layers. The system is reached only through
// ServingRuntime::ExecuteSpec / published_latest_t / ingestor() /
// Telemetry() / telemetry().registry() / topk_memo() and through
// standalone layer objects built here.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "grid/mask.h"
#include "index/quadtree.h"
#include "query/query_spec.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

enum class Shape { kPoint = 0, kRange = 1, kMulti = 2, kTopK = 3 };
constexpr int kNumShapes = 4;
const char* ShapeName(Shape shape);

/// \brief One generated request before its timestep is bound: the newest
/// timestep it asks about is `t_back` behind the latest published one
/// when it starts executing.
struct RequestTemplate {
  Shape shape = Shape::kPoint;
  std::vector<int32_t> regions;  ///< indices into the region universe
  int32_t t_back = 0;
  int32_t range_len = 1;  ///< kRange: steps ending at the newest timestep
  int32_t k = 0;          ///< kTopK
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;  ///< result rows attempted
  int64_t failed = 0;     ///< rows failed + rows of rejected specs
  std::vector<Metric> metrics;
  /// Host/build envelope plus run facts, as a JSON object body.
  std::string envelope_json;
};

/// \brief Runs one workload end to end; dies on an unknown name.
RunResult RunWorkload(const RunOptions& options);

/// \brief Names of every workload, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

// -- Shared with the traced replay (replay.cc) ------------------------------

/// \brief Per-workload constants. Every workload serves a 128x128 raster
/// with P = {1, 2, 4, 8, 16, 32}.
struct WorkloadConfig {
  std::string name;
  bool freight = false;    ///< freight preset instead of taxi
  bool low_churn = false;  ///< one rotating 32x32 block changes per step
  bool model = false;      ///< trained One4All-ST net instead of truth
  int num_shards = 1;
  one4all::EvalPath path = one4all::EvalPath::kExactCellLoop;
  /// Closed-loop capacity the open-loop rate is derived from, specs/s.
  double capacity_qps = 0.0;
  double open_rate = 0.0;  ///< Poisson specs/s of the open-loop phase
  int subscriptions = 0;   ///< top-k boards refreshed at every new epoch
};

/// \brief Frames the runtime's FrameInference returned, by timestep,
/// plus the wall time of every call. Filled by the ingest thread.
class FrameLog {
 public:
  void Record(int64_t t, const std::vector<one4all::Tensor>& frames,
              Clock::time_point start, Clock::time_point end);
  /// \brief Read only after the runtime stopped.
  const std::map<int64_t, std::vector<one4all::Tensor>>& frames() const {
    return frames_;
  }
  std::vector<double> InferMicros() const;
  /// \brief Heap the log holds (it grows with the epochs published, so
  /// it is taken out of rss_mb).
  size_t HeldBytes() const;

 private:
  mutable std::mutex mu_;
  std::map<int64_t, std::vector<one4all::Tensor>> frames_;
  std::vector<double> infer_micros_;
};

/// \brief Requests of the open-loop phase in start order, with the latest
/// published timestep each was bound to, for the single-threaded replay.
struct ReplayRequest {
  RequestTemplate tmpl;
  int64_t latest = 0;
  bool warmup = false;  ///< replayed untimed, to warm the caches
};

struct ReplayInputs {
  const WorkloadConfig* config = nullptr;
  const one4all::STDataset* dataset = nullptr;
  const one4all::ExtendedQuadTree* index = nullptr;
  const std::vector<one4all::GridMask>* universe = nullptr;
  const FrameLog* frames = nullptr;
  std::vector<ReplayRequest> requests;
  int64_t start_t = 0;
};

/// \brief Sets the timesteps a template asks for at `latest`.
void BindTime(const RequestTemplate& tmpl, int64_t latest,
              one4all::QuerySpec* spec);

/// \brief Builds the spec a template asks for at `latest`.
one4all::QuerySpec BuildSpec(const RequestTemplate& tmpl, int64_t latest,
                             const std::vector<one4all::GridMask>& universe,
                             one4all::EvalPath path);

/// \brief Replays the recorded requests and frames single-threaded
/// through standalone layer objects, one span per public call, and
/// appends the per-layer self-time metrics to `out`.
void ReplayLayers(const ReplayInputs& inputs, std::vector<Metric>* out);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
