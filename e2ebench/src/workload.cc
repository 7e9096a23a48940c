#include "workload.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/logging.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "eval/task_eval.h"
#include "grid/region_generator.h"
#include "helpers.h"
#include "model/baselines_simple.h"
#include "model/one4all_net.h"
#include "model/trainer.h"
#include "query/query_server.h"
#include "serve/serving_runtime.h"
#include "spans.h"

namespace e2ebench {

namespace o4 = one4all;

namespace {

constexpr int64_t kRaster = 128;
constexpr int64_t kMaxScale = 32;
constexpr auto kCadence = std::chrono::milliseconds(50);
constexpr int64_t kRetainTimesteps = 48;
constexpr int kQueryWorkers = 2;
constexpr int kClosedLoopClients = 2;
/// Published before anything is measured, so 24-step ranges are valid.
constexpr int64_t kWarmSteps = 32;
/// Cap of the closed-loop publish phase, which bounds the stream length.
constexpr int64_t kMaxPublishEpochs = 300;
constexpr int64_t kPublishChunk = 10;
constexpr int64_t kQueueAhead = 4;
constexpr double kWarmupSeconds = 0.5;
constexpr auto kCapacityWindow = std::chrono::milliseconds(250);
/// Freshness is observed by polling while a release is unpublished.
constexpr auto kFreshnessPoll = std::chrono::microseconds(100);
/// Open-loop workers stop sleeping this long before a request is due.
constexpr auto kSpinMargin = std::chrono::microseconds(400);
/// A generator whose p99 wake-up lateness exceeds this fell behind, and
/// so did one that sent fewer of its scheduled requests within the window.
constexpr double kMaxValidLatenessUs = 1000.0;
constexpr double kMinAchievedFrac = 0.99;
/// adhoc_point's range, multi-region and top-k specs ask about this many
/// of the most popular units (Zipf ranks), all resident in the resolve
/// cache.
constexpr uint64_t kHotUnits = 128;
/// The host calibration runs this often during the open loop.
constexpr auto kCalibrationPeriod = std::chrono::milliseconds(100);
/// Median HostCalibrator time on the host the benchmark was written on
/// (4-vCPU Xeon VM, gcc 12.2 -O3), in microseconds. Open-loop timings are
/// reported at this host speed: x kReferenceCalibrationUs / the run's
/// median calibration time.
constexpr double kReferenceCalibrationUs = 500.0;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  o4::Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  return rng.Next();
}

/// Open-loop workers that send Poisson streams: all of them, or all but
/// the dashboard's board subscriber.
int Generators(const WorkloadConfig& cfg) {
  return cfg.subscriptions > 0 ? kQueryWorkers - 1 : kQueryWorkers;
}

/// Open-loop load per generator worker, as a share of one closed-loop
/// client's throughput on the same request mix: each worker is busy
/// about this often, so few requests queue and the p50s measure service
/// time.
constexpr double kTargetUtilisation = 0.1;

/// \brief The workloads. Each open-loop rate is kTargetUtilisation x the
/// capacity_qps its closed loop measured on the code the benchmark was
/// written against (median of three seeds, rounded; 4-vCPU Xeon VM,
/// gcc 12.2 -O3), x generators / clients: 2000, 270 and 260 specs/s.
/// The mixes (NextRequest) give the workload's own shapes most of the
/// traffic and every other shape a share that yields >= 400 open-loop
/// samples in a 25-s run.
const std::vector<WorkloadConfig>& Configs() {
  static const std::vector<WorkloadConfig> configs = [] {
    std::vector<WorkloadConfig> c(3);
    c[0].name = "adhoc_point";
    c[0].capacity_qps = 20000.0;
    c[1].name = "dashboard_lowchurn";
    c[1].low_churn = true;
    c[1].path = o4::EvalPath::kSatFastPath;
    c[1].capacity_qps = 5400.0;
    c[1].subscriptions = 4;
    c[2].name = "ingest_model";
    c[2].freight = true;
    c[2].model = true;
    c[2].num_shards = 2;
    c[2].capacity_qps = 2600.0;
    for (WorkloadConfig& cfg : c) {
      cfg.open_rate = kTargetUtilisation * cfg.capacity_qps *
                      Generators(cfg) / kClosedLoopClients;
    }
    return c;
  }();
  return configs;
}

// -- Inputs: region universe and request generation -------------------------

struct Universe {
  std::vector<o4::GridMask> regions;
  // adhoc_point: Zipf rank -> region.
  std::vector<int32_t> zipf_order;
  std::unique_ptr<ZipfSampler> zipf;
  // dashboard_lowchurn: fixed 64-zone panels and top-k boards.
  std::vector<std::vector<int32_t>> panels;
  std::vector<std::vector<int32_t>> boards;
  // ingest_model: point regions and top-k zones.
  std::vector<int32_t> points;
  std::vector<int32_t> zones;
};

std::vector<int32_t> Range(int32_t begin, int32_t end) {
  std::vector<int32_t> out(static_cast<size_t>(end - begin));
  std::iota(out.begin(), out.end(), begin);
  return out;
}

void Append(std::vector<o4::GridMask> more, Universe* u) {
  for (auto& m : more) u->regions.push_back(std::move(m));
}

std::vector<o4::GridMask> Regions(o4::RegionStyle style, double mean_cells,
                                  uint64_t seed) {
  o4::RegionGeneratorOptions options;
  options.style = style;
  options.mean_cells = mean_cells;
  options.seed = seed;
  return o4::GenerateRegions(kRaster, kRaster, options);
}

Universe MakeUniverse(const WorkloadConfig& cfg, uint64_t seed) {
  Universe u;
  o4::Rng rng(Mix(seed, 1));
  if (cfg.name == "adhoc_point") {
    // Far more distinct areal units than the 4096-entry resolve cache:
    // every paper task scale in every style, from two generator seeds.
    std::vector<std::vector<int32_t>> groups;
    for (int g = 0; g < 2; ++g) {
      for (const double cells : o4::PaperTaskMeanCells()) {
        for (const auto style :
             {o4::RegionStyle::kVoronoi, o4::RegionStyle::kHexagon,
              o4::RegionStyle::kRoadGrid}) {
          const int32_t begin = static_cast<int32_t>(u.regions.size());
          Append(Regions(style, cells, rng.Next()), &u);
          groups.push_back(
              Range(begin, static_cast<int32_t>(u.regions.size())));
          rng.Shuffle(&groups.back());
        }
      }
    }
    // Zipf ranks deal the (scale, style, generator) groups round-robin, a
    // random region of each in turn, so the popular head holds every
    // scale and style in the same shares whatever the seed: which areal
    // units are hot changes with the seed, how large they are does not.
    for (size_t i = 0; u.zipf_order.size() < u.regions.size(); ++i) {
      for (const auto& group : groups) {
        if (i < group.size()) u.zipf_order.push_back(group[i]);
      }
    }
    u.zipf = std::make_unique<ZipfSampler>(u.regions.size(), 1.0);
  } else if (cfg.name == "dashboard_lowchurn") {
    Append(Regions(o4::RegionStyle::kVoronoi, 27.0, rng.Next()), &u);
    const int32_t n = static_cast<int32_t>(u.regions.size());
    for (int p = 0; p < 8; ++p) {
      std::vector<int32_t> zones = Range(0, n);
      rng.Shuffle(&zones);
      zones.resize(64);
      u.panels.push_back(std::move(zones));
    }
    u.boards.push_back(Range(0, n));
    for (int b = 1; b < cfg.subscriptions; ++b) {
      std::vector<int32_t> zones = Range(0, n);
      rng.Shuffle(&zones);
      zones.resize(static_cast<size_t>(n / 2));
      std::sort(zones.begin(), zones.end());
      u.boards.push_back(std::move(zones));
    }
  } else {
    Append(Regions(o4::RegionStyle::kHexagon, 13.0, rng.Next()), &u);
    const int32_t hexagons = static_cast<int32_t>(u.regions.size());
    Append(Regions(o4::RegionStyle::kRoadGrid, 213.0, rng.Next()), &u);
    u.points = Range(0, hexagons);
    u.zones = Range(hexagons, static_cast<int32_t>(u.regions.size()));
  }
  O4A_CHECK(!u.regions.empty());
  return u;
}

int32_t Pick(const std::vector<int32_t>& from, o4::Rng* rng) {
  return from[static_cast<size_t>(rng->UniformInt(from.size()))];
}

RequestTemplate Board(const Universe& u, size_t board) {
  RequestTemplate tmpl;
  tmpl.shape = Shape::kTopK;
  tmpl.regions = u.boards[board];
  tmpl.k = 10;
  return tmpl;
}

/// \brief Draws the next request of a workload's open-loop and closed-loop
/// traffic (the dashboard's per-epoch top-k boards come on top).
RequestTemplate NextRequest(const WorkloadConfig& cfg, const Universe& u,
                            o4::Rng* rng) {
  RequestTemplate tmpl;
  const double x = rng->Uniform();
  if (cfg.name == "adhoc_point") {
    // Point queries are the workload; 2% each of the other shapes is ~700
    // samples per 25-s run. Those ask about the kHotUnits most popular
    // units, which stay in the resolve cache: over Zipf draws, a spec's
    // cache misses (~0.5 ms each) would set its latency, and the median
    // would jump by whole misses from run to run.
    const auto draw = [&] { return u.zipf_order[u.zipf->Sample(rng)]; };
    const auto hot = [&] { return u.zipf_order[rng->UniformInt(kHotUnits)]; };
    tmpl.t_back = static_cast<int32_t>(rng->UniformInt(8));
    if (x < 0.94) {
      tmpl.regions = {draw()};
    } else if (x < 0.96) {
      tmpl.shape = Shape::kRange;
      tmpl.regions = {hot()};
      tmpl.range_len = 8;
    } else if (x < 0.98) {
      tmpl.shape = Shape::kMulti;
      for (int i = 0; i < 8; ++i) tmpl.regions.push_back(hot());
    } else {
      tmpl.shape = Shape::kTopK;
      for (int i = 0; i < 16; ++i) tmpl.regions.push_back(hot());
      tmpl.k = 5;
    }
  } else if (cfg.name == "dashboard_lowchurn") {
    // Ranges and panels are the workload (top-k comes from the boards);
    // 20% single-zone points is ~900 samples per 25-s run.
    const int32_t zones = static_cast<int32_t>(u.regions.size());
    if (x < 0.2) {
      tmpl.regions = {static_cast<int32_t>(rng->UniformInt(zones))};
    } else if (x < 0.6) {
      tmpl.shape = Shape::kRange;
      tmpl.regions = {static_cast<int32_t>(rng->UniformInt(zones))};
      tmpl.range_len = 24;
    } else {
      tmpl.shape = Shape::kMulti;
      tmpl.regions = u.panels[rng->UniformInt(u.panels.size())];
    }
  } else {
    // Points and top-k over every Task-4 zone are the readers beside
    // ingestion; 10% each of ranges and multi-region specs is ~450
    // samples per 25-s run.
    if (x < 0.6) {
      tmpl.regions = {Pick(u.points, rng)};
    } else if (x < 0.7) {
      tmpl.shape = Shape::kRange;
      tmpl.regions = {Pick(u.points, rng)};
      tmpl.range_len = 8;
    } else if (x < 0.8) {
      tmpl.shape = Shape::kMulti;
      for (int i = 0; i < 16; ++i) tmpl.regions.push_back(Pick(u.points, rng));
    } else {
      tmpl.shape = Shape::kTopK;
      tmpl.regions = u.zones;
      tmpl.k = 10;
    }
  }
  return tmpl;
}

// -- The system under test --------------------------------------------------

struct System {
  std::unique_ptr<o4::STDataset> dataset;
  std::unique_ptr<o4::One4AllNet> net;
  o4::HistoryMeanPredictor history_mean;
  std::unique_ptr<o4::MauPipeline> pipeline;
  FrameLog frame_log;
  /// Declared last: destroyed (and its ingest thread joined) first.
  std::unique_ptr<o4::ServingRuntime> runtime;
  int64_t start_t = 0;
  int64_t end_t = 0;  ///< one past the last timestep the stream holds
  double generate_s = 0.0;
  double train_s = 0.0;
  double pipeline_s = 0.0;
  double setup_s = 0.0;
};

/// Paper Eq. 6 groups with one weekly observation instead of four, so
/// the stream needs one week of history, not four.
o4::TemporalFeatureSpec FeatureSpec() {
  o4::TemporalFeatureSpec spec;
  spec.trend_len = 1;
  return spec;
}

/// \brief Data generation, training, MauPipeline::Build and runtime start
/// until the first epoch is published — all of it timed as setup_s.
/// `record_frames` wraps the inference to keep a copy of every frame set
/// (the model oracle and the traced replay need them).
std::unique_ptr<System> SetUp(const WorkloadConfig& cfg, uint64_t seed,
                              int64_t num_timesteps, bool record_frames) {
  auto sys = std::make_unique<System>();
  o4::Stopwatch total;
  o4::Stopwatch timer;
  o4::SyntheticDataOptions data =
      cfg.freight ? o4::SyntheticDataOptions::FreightPreset(kRaster, kRaster)
                  : o4::SyntheticDataOptions::TaxiPreset(kRaster, kRaster);
  data.num_timesteps = num_timesteps;
  data.seed = Mix(seed, 2);
  auto flows = o4::GenerateSyntheticFlows(data);
  O4A_CHECK(flows.ok()) << flows.status().ToString();
  if (cfg.low_churn) ApplyLowChurn(&flows->frames);
  auto dataset = o4::STDataset::Create(
      flows.MoveValueUnsafe(),
      o4::Hierarchy::Uniform(kRaster, kRaster, 2, kMaxScale), FeatureSpec());
  O4A_CHECK(dataset.ok()) << dataset.status().ToString();
  sys->dataset = std::make_unique<o4::STDataset>(dataset.MoveValueUnsafe());
  sys->generate_s = timer.ElapsedSeconds();

  o4::FlowPredictor* predictor = &sys->history_mean;
  if (cfg.model) {
    // Fixed seed and fixed small budget: the model is the same on every
    // run of a dataset, and training stays a small share of set-up.
    timer.Restart();
    o4::One4AllNetOptions net_options;
    net_options.channels = 8;
    net_options.seed = 3;
    sys->net = std::make_unique<o4::One4AllNet>(
        sys->dataset->hierarchy(), sys->dataset->spec(), net_options);
    o4::One4AllNet* net = sys->net.get();
    o4::TrainOptions train;
    train.epochs = 1;
    train.max_batches_per_epoch = 4;
    train.batch_size = 4;
    train.seed = 5;
    o4::TrainModel(
        net, *sys->dataset,
        [net](const o4::STDataset& ds, const std::vector<int64_t>& batch) {
          return net->Loss(ds, batch);
        },
        train);
    sys->train_s = timer.ElapsedSeconds();
    predictor = net;
  }

  timer.Restart();
  sys->pipeline =
      o4::MauPipeline::Build(predictor, *sys->dataset, o4::SearchOptions{});
  sys->pipeline_s = timer.ElapsedSeconds();

  o4::FrameInference inference =
      cfg.model ? o4::MakeOne4AllInference(sys->net.get(), sys->dataset.get())
                : o4::MakeGroundTruthInference(sys->dataset.get());
  if (cfg.model) {
    // The ingestor is one thread of the thread budget: inference runs on
    // a one-worker pool, where GEMM stays sequential instead of fanning
    // out over every core. It costs about the same per step, and no step
    // waits for the slowest of four cores while the query workers run.
    auto serial = std::make_shared<o4::ThreadPool>(1);
    inference = [inner = std::move(inference), serial](
                    int64_t t, const o4::TemporalInput& input)
        -> o4::Result<std::vector<o4::Tensor>> {
      o4::Result<std::vector<o4::Tensor>> frames =
          o4::Status::Internal("inference did not run");
      serial->Submit([&] { frames = inner(t, input); });
      serial->Wait();
      return frames;
    };
  }
  if (record_frames) {
    FrameLog* log = &sys->frame_log;
    inference = [inner = std::move(inference), log](
                    int64_t t, const o4::TemporalInput& input)
        -> o4::Result<std::vector<o4::Tensor>> {
      const auto start = Clock::now();
      auto frames = inner(t, input);
      const auto end = Clock::now();
      if (frames.ok()) log->Record(t, *frames, start, end);
      return frames;
    };
  }

  sys->start_t = sys->dataset->spec().MinHistory();
  sys->end_t = num_timesteps;
  o4::ServingRuntimeOptions options;
  options.num_query_threads = 1;  // specs run on the calling worker
  options.retain_timesteps = kRetainTimesteps;
  options.num_shards = cfg.num_shards;
  options.ingest.start_t = sys->start_t;
  options.ingest.num_timesteps = sys->end_t - sys->start_t;
  options.ingest.manual_stepping = true;
  sys->runtime = std::make_unique<o4::ServingRuntime>(
      &sys->dataset->hierarchy(), &sys->pipeline->index(),
      sys->dataset.get(), std::move(inference), options);
  sys->runtime->Start();
  sys->runtime->ingestor().GrantSteps(1);
  O4A_CHECK(sys->runtime->ingestor().WaitUntilPublished(sys->start_t));
  sys->setup_s = total.ElapsedSeconds();
  return sys;
}

// -- Executing and recording requests ---------------------------------------

/// Which phase answered: only warm-up and open-loop requests are
/// replayed; every answer is checked against the oracle.
enum class Phase { kWarmup, kOpenLoop, kClosedLoop };

struct Answer {
  RequestTemplate tmpl;
  int64_t latest = 0;
  Clock::time_point start, end;  ///< the ExecuteSpec call
  bool admitted = false;
  std::vector<double> values;  ///< per row; NaN for a failed row
  std::vector<int> top_k;
  Phase phase = Phase::kClosedLoop;
};

/// \brief A request whose spec is built — its region masks copied — before
/// it is sent, so the copy stays off the timed path; only the timestep is
/// bound when it is sent.
struct Prepared {
  RequestTemplate tmpl;
  o4::QuerySpec spec;
  Clock::time_point built_start, built_end;
};

Prepared Prepare(const WorkloadConfig& cfg, const Universe& u,
                 RequestTemplate tmpl) {
  Prepared p;
  p.built_start = Clock::now();
  p.spec = BuildSpec(tmpl, 0, u.regions, cfg.path);
  p.built_end = Clock::now();
  p.tmpl = std::move(tmpl);
  return p;
}

/// \brief Binds the latest published timestep and runs the spec.
Answer Dispatch(System* sys, Prepared p, SpanLog* spans) {
  Answer a;
  a.latest = sys->runtime->published_latest_t();
  BindTime(p.tmpl, a.latest, &p.spec);
  a.start = Clock::now();
  auto result = sys->runtime->ExecuteSpec(std::move(p.spec));
  a.end = Clock::now();
  if (spans != nullptr) spans->Add("ExecuteSpec", a.start, a.end);
  a.values.assign(p.tmpl.regions.size(),
                  std::numeric_limits<double>::quiet_NaN());
  if (result.ok()) {
    a.admitted = true;
    for (size_t i = 0; i < result->rows.size() && i < a.values.size(); ++i) {
      if (result->rows[i].ok()) a.values[i] = result->rows[i]->value;
    }
    a.top_k = result->top_k;
  }
  a.tmpl = std::move(p.tmpl);
  return a;
}

Answer Execute(System* sys, const WorkloadConfig& cfg, const Universe& u,
               RequestTemplate tmpl, SpanLog* spans) {
  return Dispatch(sys, Prepare(cfg, u, std::move(tmpl)), spans);
}

/// \brief Heap bytes of a vector's buffer, with glibc's chunk overhead.
template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() == 0 ? 0 : v.capacity() * sizeof(T) + 16;
}

/// \brief Everything the phases record; workers merge into it once.
struct Record {
  std::mutex mu;
  std::vector<Answer> answers;
  std::array<std::vector<double>, kNumShapes> open_latency_us;

  void Merge(std::vector<Answer>* answers_in,
             std::array<std::vector<double>, kNumShapes>* latency_in) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& a : *answers_in) answers.push_back(std::move(a));
    if (latency_in == nullptr) return;
    for (int s = 0; s < kNumShapes; ++s) {
      auto& dst = open_latency_us[static_cast<size_t>(s)];
      const auto& src = (*latency_in)[static_cast<size_t>(s)];
      dst.insert(dst.end(), src.begin(), src.end());
    }
  }

  /// \brief Heap the record holds: it grows with throughput, so it is
  /// taken out of rss_mb.
  size_t HeldBytes() {
    std::lock_guard<std::mutex> lock(mu);
    size_t bytes = VectorBytes(answers);
    for (const Answer& a : answers) {
      bytes += VectorBytes(a.tmpl.regions) + VectorBytes(a.values) +
               VectorBytes(a.top_k);
    }
    for (const auto& v : open_latency_us) bytes += VectorBytes(v);
    return bytes;
  }
};

/// \brief Times the HostCalibrator work every kCalibrationPeriod on a
/// thread of its own (busy well under 1% of the time) from construction
/// until Stop.
class CalibrationSampler {
 public:
  CalibrationSampler() : thread_([this] { Loop(); }) {}
  ~CalibrationSampler() { Stop(); }
  CalibrationSampler(const CalibrationSampler&) = delete;
  CalibrationSampler& operator=(const CalibrationSampler&) = delete;

  /// \brief Stops sampling; returns every sample's time, microseconds.
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return micros_;
  }

 private:
  void Loop() {
    HostCalibrator calibrator;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kCalibrationPeriod, [&] { return stop_; })) {
      lock.unlock();
      const double us = calibrator.RunMicros();
      lock.lock();
      micros_.push_back(us);
    }
  }

  std::mutex mu_;  ///< guards stop_ and micros_
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> micros_;
  std::thread thread_;  ///< last: starts after the members it uses
};

/// \brief Releases one observation per cadence tick and measures each
/// one's freshness: due release until published_latest_t() reaches it.
class Releaser {
 public:
  Releaser(System* sys, SpanLog* spans)
      : sys_(sys),
        spans_(spans),
        next_t_(sys->runtime->published_latest_t() + 1) {}

  void StartCadence(Clock::time_point first_due) { next_due_ = first_due; }

  void ReleaseDue(Clock::time_point now) {
    while (next_due_ <= now && next_t_ < sys_->end_t) {
      sys_->runtime->ingestor().GrantSteps(1);
      pending_.push_back({next_t_, next_due_});
      ++next_t_;
      next_due_ += kCadence;
    }
  }

  /// \brief Records the freshness of every release now published;
  /// returns the latest published timestep.
  int64_t Observe(Clock::time_point now) {
    const int64_t latest = sys_->runtime->published_latest_t();
    while (!pending_.empty() && pending_.front().first <= latest) {
      freshness_ms_.push_back(MicrosBetween(pending_.front().second, now) /
                              1e3);
      if (spans_ != nullptr) {
        spans_->Add("release_to_publish", pending_.front().second, now);
      }
      pending_.pop_front();
    }
    return latest;
  }

  /// \brief Earliest time the scheduler must wake for releases.
  Clock::time_point NextWake(Clock::time_point now) const {
    Clock::time_point wake = next_due_;
    if (!pending_.empty()) wake = std::min(wake, now + kFreshnessPoll);
    return wake;
  }

  void Drain() {
    while (!pending_.empty()) {
      std::this_thread::sleep_for(kFreshnessPoll);
      Observe(Clock::now());
    }
  }

  /// \brief Closed-loop publishing: a few observations are kept queued
  /// ahead, so the next one is there as soon as the previous one is
  /// published. Returns epochs per second: the median over consecutive
  /// chunks of kPublishChunk epochs, which one descheduled stretch cannot
  /// move.
  double PublishClosedLoop(double seconds) {
    const int64_t first = next_t_;
    const int64_t last = std::min(first + kMaxPublishEpochs, sys_->end_t) - 1;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::vector<double> chunk_eps;
    int64_t published = 0;
    auto chunk_start = start;
    while (first + published <= last && Clock::now() < end) {
      while (next_t_ <= last && next_t_ - first - published < kQueueAhead) {
        sys_->runtime->ingestor().GrantSteps(1);
        ++next_t_;
      }
      std::this_thread::sleep_for(kFreshnessPoll);
      published = sys_->runtime->published_latest_t() - first + 1;
      if (published >=
          kPublishChunk * static_cast<int64_t>(chunk_eps.size() + 1)) {
        const auto now = Clock::now();
        chunk_eps.push_back(static_cast<double>(kPublishChunk) /
                            (MicrosBetween(chunk_start, now) / 1e6));
        chunk_start = now;
      }
    }
    // The observations still queued publish off the clock.
    O4A_CHECK(sys_->runtime->ingestor().WaitUntilPublished(next_t_ - 1));
    O4A_CHECK(!chunk_eps.empty()) << "no publish chunk completed";
    return Median(chunk_eps);
  }

  bool exhausted() const { return next_t_ >= sys_->end_t; }
  const std::vector<double>& freshness_ms() const { return freshness_ms_; }

 private:
  System* sys_;
  SpanLog* spans_;
  int64_t next_t_;
  Clock::time_point next_due_;
  std::deque<std::pair<int64_t, Clock::time_point>> pending_;
  std::vector<double> freshness_ms_;
};

/// \brief Open-loop query workers. Each generator worker sends its own
/// independent Poisson stream, splitting the workload rate. It builds a
/// request's spec, sleeps until kSpinMargin before the request is due and
/// spins the rest. The request is timed from its due time, so a worker
/// still busy with an earlier one charges the wait to the request (the
/// system's queueing). A worker that slept and woke late is the
/// generator's fault instead: the delay past its wake-up time is
/// reported as lateness, and the request is timed from when it was sent.
/// Timed workers send every request of their schedule, so a backlog left
/// at the end of the window is still sent and timed. With `boards`, the
/// last worker is instead the dashboard's subscriber: at each new epoch
/// the scheduler signals (NotifyEpoch), it refreshes the top-k boards one
/// after another, the first timed from the signal and each later one
/// from the previous return. Untimed workers only load the system, and
/// Stop abandons the rest of their schedule.
class OpenLoopWorkers {
 public:
  OpenLoopWorkers(System* sys, const WorkloadConfig& cfg, const Universe& u,
                  uint64_t seed, double seconds, bool timed, bool boards,
                  Record* record, SpanLog* spans)
      : sys_(sys),
        cfg_(cfg),
        u_(u),
        timed_(timed),
        record_(record),
        spans_(spans),
        start_(Clock::now() + std::chrono::milliseconds(1)),
        end_(start_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds))),
        board_epoch_(sys->runtime->published_latest_t()) {
    const int generators = boards ? Generators(cfg) : kQueryWorkers;
    streams_.resize(static_cast<size_t>(generators));
    for (int w = 0; w < generators; ++w) {
      o4::Rng rng(Mix(seed, 10 + static_cast<uint64_t>(w)));
      Stream& stream = streams_[static_cast<size_t>(w)];
      stream.due = PoissonDueTimes(cfg.open_rate / generators, seconds, &rng);
      for (size_t i = 0; i < stream.due.size(); ++i) {
        stream.templates.push_back(NextRequest(cfg, u, &rng));
      }
      scheduled_ += static_cast<int64_t>(stream.due.size());
    }
    for (Stream& stream : streams_) {
      threads_.emplace_back([this, &stream] { SendStream(&stream); });
    }
    if (boards) threads_.emplace_back([this] { RefreshBoards(); });
  }
  ~OpenLoopWorkers() {
    Stop();
    Join();
  }
  OpenLoopWorkers(const OpenLoopWorkers&) = delete;
  OpenLoopWorkers& operator=(const OpenLoopWorkers&) = delete;

  /// \brief Tells the subscriber that epoch `latest` was seen at `seen`.
  void NotifyEpoch(int64_t latest, Clock::time_point seen) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      board_epoch_ = latest;
      board_seen_ = seen;
    }
    cv_.notify_all();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }
  void Join() {
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  Clock::time_point start() const { return start_; }
  Clock::time_point end() const { return end_; }
  // Read after Join.
  int64_t scheduled() const { return scheduled_; }
  int64_t sent_in_window() const { return sent_in_window_; }
  int64_t boards_sent() const { return boards_sent_; }
  const std::vector<double>& lateness_us() const { return lateness_us_; }

 private:
  struct Stream {
    std::vector<double> due;
    std::vector<RequestTemplate> templates;
  };

  struct Results {
    std::vector<Answer> answers;
    std::array<std::vector<double>, kNumShapes> latency;
  };

  /// \brief Sends `p`, timed from `origin` minus whatever part of its
  /// build ran after `origin` (benchmark work, not the system's).
  void Send(Prepared p, Clock::time_point origin, Results* out) {
    const Clock::duration built_late = std::max(
        Clock::duration::zero(),
        p.built_end - std::max(p.built_start, origin));
    const Shape shape = p.tmpl.shape;
    Answer a = Dispatch(sys_, std::move(p), spans_);
    out->latency[static_cast<size_t>(shape)].push_back(
        MicrosBetween(origin + built_late, a.end));
    if (timed_) a.phase = Phase::kOpenLoop;
    out->answers.push_back(std::move(a));
  }

  /// \brief Sleeps until `until`; false if stopped first.
  bool SleepUntil(Clock::time_point until) {
    std::unique_lock<std::mutex> lock(mu_);
    return !cv_.wait_until(lock, until, [&] { return stop_; });
  }

  bool stopped() {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
  }

  void SendStream(Stream* stream) {
    Results results;
    std::vector<double> lateness;
    int64_t in_window = 0;
    for (size_t i = 0; i < stream->due.size(); ++i) {
      if (!timed_ && stopped()) break;
      const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        stream->due[i]));
      Prepared p = Prepare(cfg_, u_, std::move(stream->templates[i]));
      const auto wake_at = due - kSpinMargin;
      auto now = Clock::now();
      const bool slept = now < wake_at;
      if (slept) {
        if (timed_) {
          std::this_thread::sleep_until(wake_at);
        } else if (!SleepUntil(wake_at)) {
          break;
        }
        now = Clock::now();
        lateness.push_back(MicrosBetween(wake_at, now));
      }
      while (now < due) {
        std::this_thread::yield();
        now = Clock::now();
      }
      if (now <= end_) ++in_window;
      Send(std::move(p), slept ? now : due, &results);
    }
    record_->Merge(&results.answers, timed_ ? &results.latency : nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    lateness_us_.insert(lateness_us_.end(), lateness.begin(), lateness.end());
    sent_in_window_ += in_window;
  }

  /// \brief Blocks until a new epoch is signalled (returns its signal
  /// time) or the window ends or the workers stop (returns false).
  bool AwaitEpoch(int64_t* served_epoch, Clock::time_point* seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, end_,
                   [&] { return stop_ || board_epoch_ > *served_epoch; });
    if (stop_ || board_epoch_ <= *served_epoch) return false;
    *served_epoch = board_epoch_;
    *seen = board_seen_;
    return true;
  }

  std::vector<Prepared> PrepareBoards() {
    std::vector<Prepared> boards;
    for (size_t b = 0; b < u_.boards.size(); ++b) {
      boards.push_back(Prepare(cfg_, u_, Board(u_, b)));
    }
    return boards;
  }

  void RefreshBoards() {
    Results results;
    int64_t served_epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      served_epoch = board_epoch_;
    }
    int64_t sent = 0;
    std::vector<Prepared> boards = PrepareBoards();
    Clock::time_point seen;
    while (AwaitEpoch(&served_epoch, &seen)) {
      // The boards were built as one batch; a batch still being built
      // when the epoch arrived delays the first board only.
      boards.front().built_end = boards.back().built_end;
      Clock::time_point origin = seen;
      for (Prepared& p : boards) {
        Send(std::move(p), origin, &results);
        origin = results.answers.back().end;
      }
      sent += static_cast<int64_t>(boards.size());
      boards = PrepareBoards();
    }
    record_->Merge(&results.answers, timed_ ? &results.latency : nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    boards_sent_ += sent;
  }

  System* const sys_;
  const WorkloadConfig& cfg_;
  const Universe& u_;
  const bool timed_;
  Record* const record_;
  SpanLog* const spans_;
  const Clock::time_point start_, end_;
  std::vector<Stream> streams_;
  int64_t scheduled_ = 0;

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t board_epoch_;
  Clock::time_point board_seen_;
  std::vector<double> lateness_us_;
  int64_t sent_in_window_ = 0;
  int64_t boards_sent_ = 0;
  std::vector<std::thread> threads_;
};

struct OpenLoopOutcome {
  std::vector<double> lateness_us;
  int64_t scheduled = 0;
  int64_t boards_sent = 0;
  double offered_qps = 0.0;  ///< requests sent within the window, per s
  double achieved_frac = 1.0;  ///< of the scheduled requests, sent in time
};

/// \brief The open-loop phase: the workers above, while the scheduler
/// (this thread) releases observations on cadence, measures freshness
/// and signals every new epoch to the dashboard's subscriber.
OpenLoopOutcome RunOpenLoop(System* sys, const WorkloadConfig& cfg,
                            const Universe& u, uint64_t seed, double seconds,
                            Releaser* releaser, Record* record,
                            SpanLog* spans) {
  OpenLoopWorkers workers(sys, cfg, u, seed, seconds, /*timed=*/true,
                          /*boards=*/cfg.subscriptions > 0, record, spans);
  releaser->StartCadence(workers.start());
  int64_t last_seen = sys->runtime->published_latest_t();
  while (true) {
    const auto now = Clock::now();
    if (now >= workers.end()) break;
    releaser->ReleaseDue(now);
    const int64_t latest = releaser->Observe(now);
    if (latest > last_seen) {
      workers.NotifyEpoch(latest, now);
      last_seen = latest;
    }
    std::this_thread::sleep_until(
        std::min(workers.end(), releaser->NextWake(now)));
  }
  // The generators still send (and time) any backlog due in the window.
  workers.Stop();
  workers.Join();

  OpenLoopOutcome out;
  out.scheduled = workers.scheduled();
  out.boards_sent = workers.boards_sent();
  out.lateness_us = workers.lateness_us();
  out.offered_qps = static_cast<double>(workers.sent_in_window()) / seconds;
  out.achieved_frac = out.scheduled == 0
                          ? 1.0
                          : static_cast<double>(workers.sent_in_window()) /
                                static_cast<double>(out.scheduled);
  return out;
}

/// \brief Closed loop: kClosedLoopClients clients send specs back-to-back
/// until stopped, each building its next spec between calls. Only the
/// ExecuteSpec calls count as busy time.
class ClosedLoop {
 public:
  ClosedLoop(System* sys, const WorkloadConfig& cfg, const Universe& u,
             uint64_t seed, Record* record, SpanLog* spans) {
    for (int c = 0; c < kClosedLoopClients; ++c) {
      const uint64_t client_seed = Mix(seed, 100 + static_cast<uint64_t>(c));
      clients_.emplace_back([this, sys, &cfg, &u, client_seed, record, spans] {
        o4::Rng rng(client_seed);
        std::vector<Answer> answers;
        while (!stop_.load(std::memory_order_relaxed)) {
          answers.push_back(
              Execute(sys, cfg, u, NextRequest(cfg, u, &rng), spans));
          const Answer& a = answers.back();
          busy_ns_.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(a.end -
                                                                   a.start)
                  .count(),
              std::memory_order_relaxed);
          completed_.fetch_add(1, std::memory_order_relaxed);
        }
        record->Merge(&answers, nullptr);
      });
    }
  }
  ~ClosedLoop() { Stop(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// \brief ExecuteSpec time summed over the clients, in seconds.
  double busy_s() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  void Stop() {
    stop_.store(true);
    for (auto& c : clients_) c.join();
    clients_.clear();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> busy_ns_{0};
  std::vector<std::thread> clients_;
};

struct CapacityOutcome {
  /// Specs/s the clients complete with specs ready to send: clients x
  /// specs per second of ExecuteSpec time, so the clients' own spec
  /// building is left out. The median over kCapacityWindow windows, which
  /// one descheduled stretch cannot move.
  double capacity_qps = 0.0;
  /// Specs completed per wall-clock second of the phase, everything the
  /// clients do included (the traced run's span overhead shows here).
  double wall_qps = 0.0;
};

/// \brief Capacity: closed-loop clients while observations keep arriving
/// on cadence.
CapacityOutcome RunCapacity(System* sys, const WorkloadConfig& cfg, const Universe& u,
                   uint64_t seed, double seconds, Releaser* releaser,
                   Record* record, SpanLog* spans) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  ClosedLoop loop(sys, cfg, u, seed, record, spans);
  releaser->StartCadence(start);
  std::vector<double> window_qps;
  auto window_start = start;
  int64_t window_base = 0;
  double busy_base = 0.0;
  while (true) {
    const auto now = Clock::now();
    if (now >= window_start + kCapacityWindow) {
      const int64_t completed = loop.completed();
      const double busy = loop.busy_s();
      if (busy > busy_base) {
        window_qps.push_back(kClosedLoopClients *
                             static_cast<double>(completed - window_base) /
                             (busy - busy_base));
      }
      window_base = completed;
      busy_base = busy;
      window_start = now;
    }
    if (now >= end) break;
    releaser->ReleaseDue(now);
    releaser->Observe(now);
    std::this_thread::sleep_until(std::min(
        {end, releaser->NextWake(now), window_start + kCapacityWindow}));
  }
  loop.Stop();
  CapacityOutcome out;
  out.wall_qps = static_cast<double>(loop.completed()) /
                 (MicrosBetween(start, Clock::now()) / 1e6);
  releaser->Drain();
  if (window_qps.empty()) {
    // A phase shorter than one window.
    O4A_CHECK(loop.busy_s() > 0.0) << "no spec completed in the capacity phase";
    window_qps.push_back(kClosedLoopClients *
                         static_cast<double>(loop.completed()) /
                         loop.busy_s());
  }
  out.capacity_qps = Median(window_qps);
  return out;
}

// -- Oracle -----------------------------------------------------------------

/// \brief Expected value of (region, t): the truth fold over the stream
/// (ground-truth inference, 1e-3 relative), or the reference store's
/// bit-exact value of the frames the model returned.
class Oracle {
 public:
  Oracle(const WorkloadConfig& cfg, const System& sys, const Universe& u)
      : sys_(sys), u_(u), exact_(cfg.model) {
    if (!exact_) return;
    for (const auto& [t, frames] : sys.frame_log.frames()) {
      for (size_t l = 0; l < frames.size(); ++l) {
        store_.SyncFrame(static_cast<int>(l + 1), t, frames[l]);
      }
    }
    server_ = std::make_unique<o4::RegionQueryServer>(
        &sys.dataset->hierarchy(), &sys.pipeline->index(), &store_);
  }

  double Value(int32_t region, int64_t t) {
    const uint64_t key =
        (static_cast<uint64_t>(region) << 32) | static_cast<uint64_t>(t);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    double v = 0.0;
    if (!exact_) {
      v = o4::RegionTruth(*sys_.dataset, u_.regions[static_cast<size_t>(region)],
                          t);
    } else {
      auto& terms = terms_[region];
      if (terms.empty()) {
        auto resolved = server_->Resolve(u_.regions[static_cast<size_t>(region)],
                                         o4::QueryStrategy::kUnionSubtraction);
        O4A_CHECK(resolved.ok()) << resolved.status().ToString();
        terms = resolved->terms;
      }
      auto value = server_->TryEvaluateTerms(terms, t);
      O4A_CHECK(value.ok()) << value.status().ToString();
      v = *value;
    }
    memo_.emplace(key, v);
    return v;
  }

  /// \brief RegionQueryServer::Predict on the reference store.
  double Predict(int32_t region, int64_t t) {
    auto response =
        server_->Predict(u_.regions[static_cast<size_t>(region)], t,
                         o4::QueryStrategy::kUnionSubtraction);
    O4A_CHECK(response.ok()) << response.status().ToString();
    return response->value;
  }

  bool exact() const { return exact_; }
  double Tolerance(double expected) const {
    return exact_ ? 0.0 : 1e-3 * (1.0 + std::abs(expected));
  }

 private:
  const System& sys_;
  const Universe& u_;
  bool exact_;
  o4::PredictionStore store_;
  std::unique_ptr<o4::RegionQueryServer> server_;
  std::unordered_map<int32_t, std::vector<o4::CombinationTerm>> terms_;
  std::unordered_map<uint64_t, double> memo_;
};

struct CheckOutcome {
  int64_t rows_attempted = 0;
  int64_t rows_failed = 0;
  int64_t mismatches = 0;
  int64_t predict_checks = 0;
};

CheckOutcome CheckAnswers(const std::vector<Answer>& answers, Oracle* oracle) {
  CheckOutcome out;
  const auto report = [&](const Answer& a, const std::string& what) {
    if (++out.mismatches <= 5) {
      std::cerr << "oracle mismatch: " << ShapeName(a.tmpl.shape)
                << " latest=" << a.latest << ": " << what << "\n";
    }
  };
  for (const Answer& a : answers) {
    const size_t rows = a.tmpl.regions.size();
    out.rows_attempted += static_cast<int64_t>(rows);
    if (!a.admitted) {
      out.rows_failed += static_cast<int64_t>(rows);
      continue;
    }
    const int64_t t1 = a.latest - a.tmpl.t_back;
    const int64_t t0 =
        a.tmpl.shape == Shape::kRange ? t1 - a.tmpl.range_len + 1 : t1;
    std::vector<double> expected(rows, 0.0);
    for (size_t i = 0; i < rows; ++i) {
      for (int64_t t = t0; t <= t1; ++t) {
        expected[i] += oracle->Value(a.tmpl.regions[i], t);
      }
      if (std::isnan(a.values[i])) {
        ++out.rows_failed;
      } else if (std::abs(a.values[i] - expected[i]) >
                 oracle->Tolerance(expected[i])) {
        std::ostringstream what;
        what.precision(17);
        what << "row " << i << " value " << a.values[i] << " expected "
             << expected[i];
        report(a, what.str());
      }
    }
    if (oracle->exact() && a.tmpl.shape == Shape::kPoint &&
        out.predict_checks < 64 && !std::isnan(a.values[0])) {
      ++out.predict_checks;
      if (a.values[0] != oracle->Predict(a.tmpl.regions[0], t1)) {
        report(a, "differs from RegionQueryServer::Predict");
      }
    }
    if (a.tmpl.shape != Shape::kTopK) continue;
    // Ranking: the k best by oracle value, ties either way.
    const size_t ok_rows = static_cast<size_t>(std::count_if(
        a.values.begin(), a.values.end(),
        [](double v) { return !std::isnan(v); }));
    if (a.top_k.size() !=
        std::min(static_cast<size_t>(a.tmpl.k), ok_rows)) {
      report(a, "top-k returned " + std::to_string(a.top_k.size()) + " rows");
      continue;
    }
    std::vector<bool> chosen(rows, false);
    double floor_value = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < a.top_k.size(); ++j) {
      const size_t idx = static_cast<size_t>(a.top_k[j]);
      chosen[idx] = true;
      floor_value = std::min(floor_value, expected[idx]);
      if (j > 0) {
        const double prev = expected[static_cast<size_t>(a.top_k[j - 1])];
        if (expected[idx] > prev + oracle->Tolerance(prev)) {
          report(a, "top-k order");
        }
      }
    }
    for (size_t i = 0; i < rows; ++i) {
      if (!chosen[i] && !std::isnan(a.values[i]) &&
          expected[i] > floor_value + oracle->Tolerance(floor_value)) {
        report(a, "top-k missed row " + std::to_string(i));
        break;
      }
    }
  }
  return out;
}

// -- Metrics helpers --------------------------------------------------------

double ReportedP99(const std::vector<double>& values, bool* supported) {
  const double q = std::min(99.0, HighestSupportedPercentile(values.size()));
  if (supported != nullptr) *supported = q >= 99.0;
  return Percentile(values, q);
}

/// \brief Value of an exposition sample `name <value>`, or -1 if absent.
double ExpositionValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return -1.0;
}

const WorkloadConfig& ConfigFor(const std::string& name) {
  for (const auto& cfg : Configs()) {
    if (cfg.name == name) return cfg;
  }
  O4A_CHECK(false) << "unknown workload '" << name << "'";
  return Configs()[0];
}

}  // namespace

// -- Public -------------------------------------------------------------------

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPoint:
      return "point";
    case Shape::kRange:
      return "range";
    case Shape::kMulti:
      return "multi";
    case Shape::kTopK:
      return "topk";
  }
  return "?";
}

void FrameLog::Record(int64_t t, const std::vector<o4::Tensor>& frames,
                      Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  frames_[t] = frames;
  infer_micros_.push_back(MicrosBetween(start, end));
}

std::vector<double> FrameLog::InferMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return infer_micros_;
}

size_t FrameLog::HeldBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A map node is about 64 bytes with glibc's chunk overhead.
  size_t bytes = VectorBytes(infer_micros_) + 64 * frames_.size();
  for (const auto& [t, frames] : frames_) {
    bytes += VectorBytes(frames);
    for (const o4::Tensor& frame : frames) {
      bytes += static_cast<size_t>(frame.numel()) * sizeof(float) + 16;
    }
  }
  return bytes;
}

void BindTime(const RequestTemplate& tmpl, int64_t latest,
              o4::QuerySpec* spec) {
  const int64_t t1 = latest - tmpl.t_back;
  const int64_t t0 = tmpl.shape == Shape::kRange ? t1 - tmpl.range_len + 1 : t1;
  spec->time = o4::TimeSelector::Range(t0, t1);
}

o4::QuerySpec BuildSpec(const RequestTemplate& tmpl, int64_t latest,
                        const std::vector<o4::GridMask>& universe,
                        o4::EvalPath path) {
  std::vector<o4::GridMask> masks;
  masks.reserve(tmpl.regions.size());
  for (const int32_t r : tmpl.regions) {
    masks.push_back(universe[static_cast<size_t>(r)]);
  }
  o4::QuerySpec spec;
  switch (tmpl.shape) {
    case Shape::kPoint:
      spec = o4::QuerySpec::PointInTime(std::move(masks[0]), 0);
      break;
    case Shape::kRange:
      spec = o4::QuerySpec::TimeRange(std::move(masks[0]), 0, 0);
      break;
    case Shape::kMulti:
      spec = o4::QuerySpec::MultiRegion(std::move(masks), 0);
      break;
    case Shape::kTopK:
      spec = o4::QuerySpec::TopK(std::move(masks), 0, tmpl.k);
      break;
  }
  spec.eval_path = path;
  BindTime(tmpl, latest, &spec);
  return spec;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const auto& cfg : Configs()) names.push_back(cfg.name);
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  const WorkloadConfig& cfg = ConfigFor(options.workload);
  const double open_s = 0.7 * options.seconds;
  const double capacity_s = 0.15 * options.seconds;
  const double publish_s = 0.15 * options.seconds;
  // The stream must outlast every phase; sized for the traced run (two
  // capacity phases) so set-up does the same work in every mode.
  const int64_t cadence_steps = static_cast<int64_t>(
      std::ceil((open_s + 2.0 * capacity_s) / 0.05));
  const int64_t num_timesteps = FeatureSpec().MinHistory() + 1 + kWarmSteps +
                                cadence_steps + kMaxPublishEpochs + 16;

  const Universe u = MakeUniverse(cfg, options.seed);
  std::unique_ptr<System> sys =
      SetUp(cfg, options.seed, num_timesteps,
            !options.setup_only && (cfg.model || options.trace));
  RunResult result;
  const HostEnvelope host = ReadHostEnvelope(E2E_BUILD_TYPE, E2E_BUILD_FLAGS);

  std::ostringstream env;
  env << "\"workload\": \"" << cfg.name << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"git_sha\": \""
      << JsonEscape(options.git_sha) << "\", \"nproc\": " << host.nproc
      << ", \"cpu_model\": \"" << JsonEscape(host.cpu_model)
      << "\", \"compiler\": \"" << JsonEscape(host.compiler)
      << "\", \"build_type\": \"" << JsonEscape(host.build_type)
      << "\", \"build_flags\": \"" << JsonEscape(host.build_flags)
      << "\", \"threads\": {\"scheduler\": 1, \"query_workers\": "
      << kQueryWorkers << ", \"closed_loop_clients\": " << kClosedLoopClients
      << ", \"ingest\": 1, \"shared_compute_pool\": "
      << o4::ThreadPool::HardwareThreads() << "}, \"raster\": " << kRaster
      << ", \"timesteps\": " << num_timesteps
      << ", \"shards\": " << cfg.num_shards;

  if (options.setup_only) {
    sys->runtime->Stop();
    result.attempted = 1;
    result.metrics.push_back({"setup_s", sys->setup_s, "s"});
    result.envelope_json = env.str();
    return result;
  }

  SpanLog spans;
  SpanLog* live_spans = options.trace ? &spans : nullptr;
  Record record;

  // Warm-up: publish enough history for 24-step ranges, resolve every
  // fixed zone once, and let the caches reach their steady state.
  sys->runtime->ingestor().GrantSteps(kWarmSteps);
  O4A_CHECK(sys->runtime->ingestor().WaitUntilPublished(sys->start_t +
                                                        kWarmSteps));
  {
    std::vector<Answer> warm;
    if (cfg.name != "adhoc_point") {
      RequestTemplate all;
      all.shape = Shape::kMulti;
      all.regions = Range(0, static_cast<int32_t>(u.regions.size()));
      warm.push_back(Execute(sys.get(), cfg, u, std::move(all), nullptr));
      for (size_t b = 0; b < u.boards.size(); ++b) {
        warm.push_back(Execute(sys.get(), cfg, u, Board(u, b), nullptr));
      }
    }
    for (auto& a : warm) a.phase = Phase::kWarmup;
    record.Merge(&warm, nullptr);
    Record warm_loop;
    ClosedLoop loop(sys.get(), cfg, u, Mix(options.seed, 4), &warm_loop,
                    nullptr);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    loop.Stop();
    for (auto& a : warm_loop.answers) a.phase = Phase::kWarmup;
    record.Merge(&warm_loop.answers, nullptr);
  }

  const auto telemetry_before = sys->runtime->Telemetry();
  const int64_t reused_before = sys->runtime->topk_memo().rows_reused();
  const int64_t reeval_before = sys->runtime->topk_memo().rows_reevaluated();

  const double steal_before_ms = StealMs();
  Releaser releaser(sys.get(), live_spans);
  CalibrationSampler calibration;
  const OpenLoopOutcome open = RunOpenLoop(sys.get(), cfg, u, options.seed,
                                           open_s, &releaser, &record,
                                           live_spans);
  releaser.Drain();
  const std::vector<double> calib_samples = calibration.Stop();
  const double calib_us = Median(calib_samples);
  const double host_scale = kReferenceCalibrationUs / calib_us;
  // Freshness under the open-loop reads; the capacity phase's saturating
  // clients are not what a published epoch normally waits behind.
  const std::vector<double> freshness_ms = releaser.freshness_ms();

  double capacity_qps = 0.0;
  double trace_overhead_pct = 0.0;
  if (options.trace) {
    // The same closed loop without and with benchmark spans.
    const CapacityOutcome untraced =
        RunCapacity(sys.get(), cfg, u, Mix(options.seed, 5), capacity_s,
                    &releaser, &record, nullptr);
    const CapacityOutcome traced =
        RunCapacity(sys.get(), cfg, u, Mix(options.seed, 5), capacity_s,
                    &releaser, &record, &spans);
    capacity_qps = traced.capacity_qps;
    trace_overhead_pct =
        (untraced.wall_qps - traced.wall_qps) / untraced.wall_qps * 100.0;
  } else {
    capacity_qps = RunCapacity(sys.get(), cfg, u, Mix(options.seed, 5),
                               capacity_s, &releaser, &record, nullptr)
                       .capacity_qps;
  }

  double publish_eps = 0.0;
  {
    // Reads keep arriving at the open-loop rate while publishing runs
    // closed loop.
    OpenLoopWorkers readers(sys.get(), cfg, u, Mix(options.seed, 6),
                            publish_s, /*timed=*/false, /*boards=*/false,
                            &record, live_spans);
    publish_eps = releaser.PublishClosedLoop(publish_s);
    readers.Stop();
  }
  // Resident set of the program: free heap pages go back to the OS first,
  // and the heap the benchmark's own records hold comes off.
  TrimHeap();
  const double rss_raw_mb = ResidentMb();
  const double held_mb =
      static_cast<double>(record.HeldBytes() + sys->frame_log.HeldBytes()) /
      (1024.0 * 1024.0);
  const double rss_mb = rss_raw_mb - held_mb;
  const double steal_ms = StealMs() - steal_before_ms;
  const auto telemetry = sys->runtime->Telemetry();
  const std::string exposition =
      sys->runtime->telemetry().registry().ExpositionText();
  O4A_CHECK(!releaser.exhausted()) << "stream ran out of timesteps";
  sys->runtime->Stop();
  O4A_CHECK(sys->runtime->ingestor().status().ok())
      << sys->runtime->ingestor().status().ToString();

  // Oracle: every answered row, off the timed path.
  Oracle oracle(cfg, *sys, u);
  const CheckOutcome check = CheckAnswers(record.answers, &oracle);
  result.correct = check.mismatches == 0;
  result.attempted = check.rows_attempted;
  result.failed = check.rows_failed;

  std::vector<double> all_latency;
  for (const auto& v : record.open_latency_us) {
    all_latency.insert(all_latency.end(), v.begin(), v.end());
  }
  bool p99_supported = false;
  const double query_p99 = ReportedP99(all_latency, &p99_supported);
  const double freshness_q =
      std::min(90.0, HighestSupportedPercentile(freshness_ms.size()));
  const double late_p99 = ReportedP99(open.lateness_us, nullptr);
  const bool valid = late_p99 <= kMaxValidLatenessUs &&
                     open.achieved_frac >= kMinAchievedFrac;
  if (!valid) {
    std::cerr << "WARNING: open-loop generator fell behind (p99 lateness "
              << late_p99 << " us, "
              << open.achieved_frac * 100.0
              << "% of the scheduled requests sent in the window): this run "
                 "is not valid\n";
  }
  // Offered load per generator over one closed-loop client's throughput.
  const double utilisation = open.offered_qps / Generators(cfg) /
                             (capacity_qps / kClosedLoopClients);
  if (!p99_supported) {
    std::cerr << "WARNING: query_p99_us from " << all_latency.size()
              << " samples is the highest supported percentile\n";
  }

  env << ", \"capacity_qps\": " << capacity_qps
      << ", \"publish_eps\": " << publish_eps
      << ", \"valid\": " << (valid ? "true" : "false")
      << ", \"gen_late_p99_us\": " << late_p99
      << ", \"host_steal_ms\": " << steal_ms
      << ", \"open_rate\": " << cfg.open_rate
      << ", \"offered_qps\": " << open.offered_qps
      << ", \"scheduled\": " << open.scheduled
      << ", \"sent_in_window_frac\": " << open.achieved_frac
      << ", \"boards_sent\": " << open.boards_sent
      << ", \"target_utilisation\": " << kTargetUtilisation
      << ", \"rate_from_capacity_qps\": " << cfg.capacity_qps
      << ", \"utilisation\": " << utilisation
      << ", \"rss_raw_mb\": " << rss_raw_mb
      << ", \"bench_held_mb\": " << held_mb
      << ", \"open_loop_samples\": " << all_latency.size()
      << ", \"query_p90_us\": " << Percentile(all_latency, 90.0)
      << ", \"query_p99_us\": " << query_p99
      << ", \"freshness_samples\": " << freshness_ms.size()
      << ", \"freshness_tail_percentile\": " << freshness_q
      << ", \"freshness_tail_ms\": "
      << Percentile(freshness_ms, freshness_q)
      << ", \"rows_attempted\": " << check.rows_attempted
      << ", \"rows_failed\": " << check.rows_failed << ", \"error_rate\": "
      << (check.rows_attempted == 0
              ? 0.0
              : static_cast<double>(check.rows_failed) /
                    static_cast<double>(check.rows_attempted))
      << ", \"oracle_mismatches\": " << check.mismatches
      << ", \"predict_checks\": " << check.predict_checks
      << ", \"calibration_us\": " << calib_us
      << ", \"calibration_samples\": " << calib_samples.size()
      << ", \"host_scale\": " << host_scale
      << ", \"freshness_p50_raw_ms\": " << Median(freshness_ms);
  for (int s = 0; s < kNumShapes; ++s) {
    const auto& samples = record.open_latency_us[static_cast<size_t>(s)];
    env << ", \"" << ShapeName(static_cast<Shape>(s)) << "_samples\": "
        << samples.size() << ", \"" << ShapeName(static_cast<Shape>(s))
        << "_p50_raw_us\": " << Median(samples);
  }
  result.envelope_json = env.str();

  auto& m = result.metrics;
  if (!options.trace) {
    m.push_back({"setup_s", sys->setup_s, "s"});
    for (int s = 0; s < kNumShapes; ++s) {
      m.push_back({std::string(ShapeName(static_cast<Shape>(s))) + "_p50_us",
                   host_scale *
                       Median(record.open_latency_us[static_cast<size_t>(s)]),
                   "us"});
    }
    m.push_back({"freshness_p50_ms", host_scale * Median(freshness_ms), "ms"});
    m.push_back({"rss_mb", rss_mb, "MB"});
    return result;
  }

  // Traced run: live counters and spans first, then the replay.
  const auto live = spans.SelfMicrosByName();
  const auto mean_of = [&](const char* name) {
    const auto it = live.find(name);
    return it == live.end() ? 0.0 : Mean(it->second);
  };
  m.push_back({"data.generate_s", sys->generate_s, "s"});
  m.push_back({"model.train_s", sys->train_s, "s"});
  m.push_back({"model.infer_ms", Mean(sys->frame_log.InferMicros()) / 1e3,
               "ms"});
  m.push_back({"eval.pipeline_build_s", sys->pipeline_s, "s"});
  m.push_back({"combine.search_s", sys->pipeline->search_seconds(), "s"});
  m.push_back({"index.nodes",
               static_cast<double>(
                   sys->pipeline->index().MeasureSize().num_nodes),
               "count"});
  const double reused = static_cast<double>(
      sys->runtime->topk_memo().rows_reused() - reused_before);
  const double reevaluated = static_cast<double>(
      sys->runtime->topk_memo().rows_reevaluated() - reeval_before);
  m.push_back({"query.topk_reuse_frac",
               reused + reevaluated > 0 ? reused / (reused + reevaluated) : 0.0,
               "fraction"});
  const double cow = static_cast<double>(telemetry.cow_shared_tiles -
                                         telemetry_before.cow_shared_tiles);
  const double dirty = static_cast<double>(telemetry.stage_dirty_tiles -
                                           telemetry_before.stage_dirty_tiles);
  m.push_back({"serve.cow_shared_frac", cow + dirty > 0 ? cow / (cow + dirty)
                                                        : 0.0,
               "fraction"});
  m.push_back({"serve.epochs_reclaimed",
               static_cast<double>(telemetry.epochs_reclaimed -
                                   telemetry_before.epochs_reclaimed),
               "count"});
  m.push_back({"serve.admission_rejects",
               static_cast<double>(telemetry.queries_rejected -
                                   telemetry_before.queries_rejected),
               "count"});
  m.push_back({"bench.gen_late_p99_us", late_p99, "us"});
  m.push_back({"bench.offered_qps", open.offered_qps, "specs/s"});
  m.push_back({"bench.trace_overhead_pct", trace_overhead_pct, "%"});
  m.push_back({"bench.execute_spec_us", mean_of("ExecuteSpec"), "us"});
  m.push_back({"bench.release_to_publish_ms",
               mean_of("release_to_publish") / 1e3, "ms"});

  ReplayInputs replay;
  replay.config = &cfg;
  replay.dataset = sys->dataset.get();
  replay.index = &sys->pipeline->index();
  replay.universe = &u.regions;
  replay.frames = &sys->frame_log;
  replay.start_t = sys->start_t;
  std::vector<const Answer*> order;
  for (const Answer& a : record.answers) {
    if (a.phase != Phase::kClosedLoop) order.push_back(&a);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Answer* a, const Answer* b) {
                     return a->start < b->start;
                   });
  for (const Answer* a : order) {
    replay.requests.push_back({a->tmpl, a->latest, a->phase == Phase::kWarmup});
  }
  ReplayLayers(replay, &m);

  // Live barrier counters when sharded (they are the ones a concurrent
  // pin can trip); the replay's otherwise.
  const double live_retries =
      ExpositionValue(exposition, "one4all_shard_pin_retries");
  const double live_torn =
      ExpositionValue(exposition, "one4all_shard_torn_pins");
  for (Metric& metric : m) {
    if (metric.name == "shard.pin_retries" && live_retries >= 0) {
      metric.value = live_retries;
    }
    if (metric.name == "shard.torn_pins" && live_torn >= 0) {
      metric.value = live_torn;
    }
  }
  for (const Metric& metric : m) {
    if (metric.name == "shard.torn_pins" && metric.value != 0.0) {
      std::cerr << "torn cross-shard pins: " << metric.value << "\n";
      result.correct = false;
    }
  }
  return result;
}

}  // namespace e2ebench
