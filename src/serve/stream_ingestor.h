// Streaming timestep ingestion for the online serving runtime: consumes
// flow observations one timestep at a time (replayed from a dataset, as
// the stand-in for the paper's continuously-arriving traffic), maintains
// the rolling closeness/period/trend input window (Eq. 6), runs
// multi-scale inference on a background thread, and hands the resulting
// frame set to an EpochSink (the runtime's ShardSet) as one
// atomically-published epoch per timestep.
#ifndef ONE4ALL_SERVE_STREAM_INGESTOR_H_
#define ONE4ALL_SERVE_STREAM_INGESTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "obs/trace.h"
#include "serve/epoch_sink.h"
#include "serve/telemetry.h"

namespace one4all {

class One4AllNet;  // model/one4all_net.h

/// \brief Maps one timestep plus its assembled input window to the
/// de-normalized multi-scale frame set (element l-1: [Hl, Wl]).
/// Implementations: the trained net (MakeOne4AllInference), ground-truth
/// aggregation for model-independent load tests
/// (MakeGroundTruthInference), or any custom callback.
using FrameInference = std::function<Result<std::vector<Tensor>>(
    int64_t t, const TemporalInput& input)>;

/// \brief Wraps One4AllNet::InferServingFrames; `net` and `dataset` must
/// outlive the returned callback.
FrameInference MakeOne4AllInference(const One4AllNet* net,
                                    const STDataset* dataset);

/// \brief Oracle inference: returns the dataset's ground-truth frames
/// aggregated to every layer. Model-independent serving load tests and
/// consistency checks (any exact-cover combination then reproduces the
/// region's true flow bit-for-bit).
FrameInference MakeGroundTruthInference(const STDataset* dataset);

/// \brief Rolling buffer of raw atomic observation frames, retaining
/// exactly the history the temporal feature construction needs (Eq. 6:
/// lc closeness + lp daily + lt weekly offsets).
class RollingWindow {
 public:
  RollingWindow(const TemporalFeatureSpec& spec, ScaleStats atomic_stats);

  /// \brief Ingests the observation of timestep `t` ([H, W] raw flows)
  /// and evicts frames that fell out of every window.
  void Push(int64_t t, Tensor frame);

  /// \brief True when every history offset of `t` is buffered.
  bool Ready(int64_t t) const;

  /// \brief Normalized model input for timestep `t` (batch size 1);
  /// FailedPrecondition when an offset is missing.
  Result<TemporalInput> AssembleInput(int64_t t) const;

  size_t buffered_frames() const { return frames_.size(); }

 private:
  Result<Tensor> Stack(const std::vector<int64_t>& offsets, int64_t t) const;

  TemporalFeatureSpec spec_;
  ScaleStats stats_;
  std::vector<int64_t> closeness_offsets_, period_offsets_, trend_offsets_;
  std::map<int64_t, Tensor> frames_;  ///< raw atomic frames by timestep
};

struct StreamIngestorOptions {
  /// First timestep to infer and publish; must leave a full history
  /// window inside the dataset (>= spec.MinHistory()).
  int64_t start_t = 0;
  /// Timesteps to ingest before finishing (0: none, useful for tests
  /// driving the epoch manager directly).
  int64_t num_timesteps = 0;
  /// Floor on the wall-clock spacing between consecutive epoch
  /// publishes; 0 publishes as fast as inference allows.
  int64_t min_publish_interval_ms = 0;
  /// Manual stepping: the loop publishes nothing on its own — each
  /// publish attempt must be granted via GrantSteps(). The scenario
  /// harness drives ingestion on a virtual clock this way (one grant
  /// per cadence tick), which makes epoch progression deterministic
  /// while the ingestor still runs as a real background thread.
  bool manual_stepping = false;
  /// Span sink for per-attempt publish trees (infer → stage frames →
  /// publish); null uses TraceRecorder::Global(). Must outlive the
  /// ingestor.
  TraceRecorder* trace = nullptr;
};

/// \brief Background ingestion loop. Start() spawns the thread; Stop()
/// (or destruction) requests shutdown and joins.
class StreamIngestor {
 public:
  /// \param dataset Source of replayed observations; must outlive this.
  /// \param epochs Publication target (a ShardSet flipping its band
  /// shards behind one barrier); must outlive this.
  /// \param telemetry Optional; must outlive this when non-null.
  StreamIngestor(const STDataset* dataset, FrameInference inference,
                 EpochSink* epochs, ServingTelemetry* telemetry,
                 StreamIngestorOptions options);
  ~StreamIngestor();

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  void Start();
  void Stop();

  /// \brief Stalls the publish loop before its next attempt (the
  /// stalled-publisher fault seam): observations stop being consumed and
  /// no epoch publishes until Resume(). Already-started attempts finish.
  void Pause();
  void Resume();
  bool paused() const;

  /// \brief Permits `n` more publish attempts under manual_stepping
  /// (no-op credit otherwise; the free-running loop never waits on it).
  /// Each attempt — successful or refused by the store — consumes one
  /// permit, so a driver granting k permits knows exactly k attempts
  /// will have happened once WaitUntilAttempted(total) returns.
  void GrantSteps(int64_t n);

  /// \brief Blocks until an epoch with latest_t >= `t` has been
  /// published, or ingestion finished/stopped; true when reached.
  bool WaitUntilPublished(int64_t t);
  /// \brief Blocks until `n` publish attempts have completed (counting
  /// failures), or the loop finished/stopped; true when reached.
  bool WaitUntilAttempted(int64_t n);
  /// \brief Blocks until the ingest loop finishes its configured steps.
  void WaitUntilDone();

  bool done() const;
  int64_t steps_published() const;
  /// \brief Publish attempts so far, successful or not.
  int64_t steps_attempted() const;
  /// \brief First inference/ingest error (OK while healthy).
  Status status() const;
  /// \brief Status of the most recent publish attempt (the absorbed,
  /// retryable kind — store write refusals; OK after a success).
  Status last_publish_error() const;

 private:
  void Run();
  /// \brief Blocks until the next publish attempt may start (not paused,
  /// permit available under manual stepping). False on stop request.
  bool AwaitStepClearance();

  const STDataset* dataset_;
  FrameInference inference_;
  EpochSink* epochs_;
  ServingTelemetry* telemetry_;
  TraceRecorder* trace_;  ///< never null (options.trace or Global())
  StreamIngestorOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};

  mutable std::mutex mu_;
  std::condition_variable progress_cv_;
  /// Wakes the publish loop when Pause/Resume/GrantSteps/Stop changes
  /// what AwaitStepClearance is waiting on.
  std::condition_variable control_cv_;
  int64_t published_latest_t_ = -1;
  int64_t steps_published_ = 0;
  int64_t steps_attempted_ = 0;
  bool paused_ = false;
  int64_t step_permits_ = 0;
  bool done_ = false;
  Status status_;
  Status last_publish_error_;
};

}  // namespace one4all

#endif  // ONE4ALL_SERVE_STREAM_INGESTOR_H_
