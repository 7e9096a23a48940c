// Throughput of the tensor-kernel subsystem: blocked/vectorized SGEMM
// GFLOP/s against the scalar naive reference across square sizes,
// Conv2d forward/backward latency across batch-parallel thread counts,
// the direct forward convolution against the Im2Col + Sgemm product it
// reproduces byte for byte at the serving net's shapes, the serving
// inference (One4AllNet::InferServingFrames at the end-to-end benchmark's
// ingest shape) and one batch-16 PredictAllLayers, each with its best and
// median call, minor page faults and taped nodes per call. Besides the
// human-readable tables, emits a machine-readable BENCH_kernels.json
// (path overridable via O4A_BENCH_JSON) so the perf trajectory of the
// compute layer is tracked across changes; the serving-shape and model
// rows are report-only.
//
// Env knobs: O4A_BENCH_REPS (timed repetitions, default 3; CI smoke uses
// 1), O4A_BENCH_JSON (output path, empty string disables the file),
// O4A_BENCH_STRICT (default 1: exit nonzero when the GEMM speedup shape
// check misses; 0 makes the check informational — used by the
// -march=native CI smoke, where the *naive* baseline itself
// auto-vectorizes and the ratio is no longer the scalar-reference one
// this check is defined against).
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/table_printer.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "model/one4all_net.h"
#include "serve/stream_ingestor.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace one4all {
namespace bench {
namespace {

struct GemmResult {
  int64_t size = 0;
  double naive_gflops = 0.0;
  double opt_gflops = 0.0;
  double speedup = 0.0;
};

struct GemmThreadResult {
  int64_t size = 0;
  int threads = 0;
  double gflops = 0.0;
  /// More workers than hardware threads: the row is a functional
  /// datapoint (the fan-out path still runs), not a scaling claim.
  bool oversubscribed = false;
};

struct ConvResult {
  std::string shape;
  int threads = 0;
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  double forward_speedup = 0.0;   // vs the naive:: reference conv
  double backward_speedup = 0.0;  // vs the naive:: reference conv
  double forward_scaling = 0.0;   // vs 1 thread, same shape
  double backward_scaling = 0.0;  // vs 1 thread, same shape
};

struct ServingConvResult {
  std::string shape;
  double direct_ms = 0.0;
  double reference_ms = 0.0;  // Im2Col + Sgemm + bias
  double direct_gflops = 0.0;
  double reference_gflops = 0.0;
  bool identical = false;  // the two outputs compare equal byte for byte
};

// Per-call costs of a model pass over `reps` timed calls.
struct CallResult {
  std::string shape;
  int threads = 0;
  int reps = 0;
  double best_ms = 0.0;
  double median_ms = 0.0;
  double minor_faults = 0.0;  // per call, whole process (getrusage)
  double tape_nodes = 0.0;    // taped autograd nodes per call
};

int Reps() {
  const char* env = std::getenv("O4A_BENCH_REPS");
  if (env == nullptr) return 3;
  return std::max(1, atoi(env));
}

// Best-of-reps wall time of fn(), with one untimed warm-up.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

std::vector<GemmResult> RunGemm(int reps, std::vector<GemmThreadResult>* mt,
                                double* checksum) {
  std::vector<GemmResult> results;
  for (const int64_t n : {64, 128, 256, 512, 1024}) {
    Rng rng(static_cast<uint64_t>(n));
    const Tensor a = Tensor::RandomNormal({n, n}, &rng);
    const Tensor b = Tensor::RandomNormal({n, n}, &rng);
    const double flops = 2.0 * static_cast<double>(n) * n * n;

    GemmResult res;
    res.size = n;
    // The naive kernel at 1024 runs ~1 s/rep; one rep is representative.
    const int naive_reps = n >= 512 ? 1 : reps;
    res.naive_gflops =
        flops / TimeBest(naive_reps, [&] { naive::MatMul(a, b); }) / 1e9;
    res.opt_gflops = flops / TimeBest(reps, [&] { MatMul(a, b); }) / 1e9;
    res.speedup = res.opt_gflops / res.naive_gflops;
    *checksum += MatMul(a, b).Sum();
    results.push_back(res);

    // Row-block fan-out only engages above 2*MC rows; smaller sizes would
    // just measure the sequential path again.
    if (n >= 512) {
      // 2/4/N-thread runs always record a row — skipping oversubscribed
      // configurations left gemm_threads empty in the JSON on
      // single-core CI boxes, so the threaded kernel path had no
      // tracked baseline at all. Oversubscribed rows are flagged
      // instead of dropped.
      std::vector<int> thread_counts = {2, 4};
      const int hw = ThreadPool::HardwareThreads();
      if (hw > 4) thread_counts.push_back(hw);
      for (const int threads : thread_counts) {
        ThreadPool pool(threads);
        ScopedComputePool scoped(&pool);
        GemmThreadResult tres;
        tres.size = n;
        tres.threads = threads;
        tres.oversubscribed = threads > hw;
        tres.gflops = flops / TimeBest(reps, [&] { MatMul(a, b); }) / 1e9;
        mt->push_back(tres);
      }
    }
  }
  return results;
}

std::vector<ConvResult> RunConv(int reps, double* checksum) {
  struct Shape {
    std::string name;
    int64_t n, c, h, f, k, pad;
  };
  // First shape mirrors the One4All-ST trunk (batch 8, 8 channels, 32x32
  // raster); the second is the "bigger raster, more channels" growth
  // direction.
  const std::vector<Shape> shapes = {
      {"n8_c8_32x32_f8_k3", 8, 8, 32, 8, 3, 1},
      {"n16_c16_64x64_f16_k3", 16, 16, 64, 16, 3, 1},
  };
  std::vector<ConvResult> results;
  for (const Shape& shape : shapes) {
    Rng rng(7);
    const Tensor x =
        Tensor::RandomNormal({shape.n, shape.c, shape.h, shape.h}, &rng);
    const Tensor w = Tensor::RandomNormal(
        {shape.f, shape.c, shape.k, shape.k}, &rng);
    const Tensor bias = Tensor::RandomNormal({shape.f}, &rng);
    const Conv2dSpec spec{1, shape.pad};
    const Tensor out = Conv2dForward(x, w, bias, spec);
    Tensor go = Tensor::RandomNormal(out.shape(), &rng);
    *checksum += out.Sum();

    // The speedup baseline is the scalar naive:: reference conv (the
    // same oracle the parity tests pin against), not the optimized path
    // at 1 thread — which used to make every 1-thread row report a
    // tautological forward_speedup of 1.000. One rep: the reference at
    // the larger shape runs hundreds of ms and is noise-insensitive.
    const double naive_fwd =
        TimeBest(1, [&] { naive::Conv2dForward(x, w, bias, spec); }) * 1e3;
    const double naive_bwd = TimeBest(1, [&] {
                               Tensor gi, gw, gb;
                               naive::Conv2dBackward(x, w, go, spec, &gi,
                                                     &gw, &gb);
                             }) *
                             1e3;

    double base_fwd = 0.0, base_bwd = 0.0;
    for (const int threads : {1, 2, 4}) {
      // Oversubscribed configurations would record meaningless scaling
      // rows into the JSON baseline; skip them (the 1-thread row with
      // its vs-naive speedup always survives, whatever the host).
      if (threads > 1 && threads > ThreadPool::HardwareThreads()) continue;
      ThreadPool pool(threads);
      ScopedComputePool scoped(threads > 1 ? &pool : nullptr);
      ConvResult res;
      res.shape = shape.name;
      res.threads = threads;
      res.forward_ms =
          TimeBest(reps, [&] { Conv2dForward(x, w, bias, spec); }) * 1e3;
      res.backward_ms = TimeBest(reps, [&] {
                          Tensor gi, gw, gb;
                          Conv2dBackward(x, w, go, spec, &gi, &gw, &gb);
                        }) *
                        1e3;
      if (threads == 1) {
        base_fwd = res.forward_ms;
        base_bwd = res.backward_ms;
      }
      res.forward_speedup = naive_fwd / res.forward_ms;
      res.backward_speedup = naive_bwd / res.backward_ms;
      res.forward_scaling = base_fwd / res.forward_ms;
      res.backward_scaling = base_bwd / res.backward_ms;
      results.push_back(res);
    }
  }
  return results;
}

// The forward convolution as Im2Col + Sgemm + bias, which the direct
// kernel reproduces byte for byte.
Tensor Im2ColSgemmConv(const Tensor& x, const Tensor& w, const Tensor& b,
                       const Conv2dSpec& spec) {
  const int64_t n = x.dim(0), c = x.dim(1);
  const int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int64_t oh = spec.OutExtent(x.dim(2), kh);
  const int64_t ow = spec.OutExtent(x.dim(3), kw);
  const int64_t patch = c * kh * kw, plane = oh * ow;
  Tensor out({n, f, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    const Tensor cols = Im2Col(x, s, kh, kw, spec);
    float* dst = out.data() + s * f * plane;
    Sgemm(false, false, f, plane, patch, 1.0f, w.data(), patch, cols.data(),
          plane, 0.0f, dst, plane);
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t i = 0; i < plane; ++i) dst[fi * plane + i] += b[fi];
    }
  }
  return out;
}

// Batch-1 forward convolutions at the shapes One4AllNet runs on the
// 128x128 raster with 8 channels (closeness 6, period 7, the spatial
// block's c8, the 1x1 fusion of 24 channels, the 2x2 stride-2 merge).
std::vector<ServingConvResult> RunServingConv(int reps, double* checksum) {
  struct Shape {
    std::string name;
    int64_t c, f, k, stride, pad;
  };
  const std::vector<Shape> shapes = {
      {"c6_128x128_f8_k3", 6, 8, 3, 1, 1},
      {"c7_128x128_f8_k3", 7, 8, 3, 1, 1},
      {"c8_128x128_f8_k3", 8, 8, 3, 1, 1},
      {"c24_128x128_f8_k1", 24, 8, 1, 1, 0},
      {"c8_128x128_f8_k2_s2", 8, 8, 2, 2, 0},
  };
  std::vector<ServingConvResult> results;
  for (const Shape& shape : shapes) {
    Rng rng(11);
    const Tensor x = Tensor::RandomNormal({1, shape.c, 128, 128}, &rng);
    const Tensor w =
        Tensor::RandomNormal({shape.f, shape.c, shape.k, shape.k}, &rng);
    const Tensor bias = Tensor::RandomNormal({shape.f}, &rng);
    const Conv2dSpec spec{shape.stride, shape.pad};
    const Tensor direct = Conv2dForward(x, w, bias, spec);
    const Tensor reference = Im2ColSgemmConv(x, w, bias, spec);
    *checksum += direct.Sum();

    ServingConvResult res;
    res.shape = shape.name;
    res.identical =
        direct.shape() == reference.shape() &&
        std::memcmp(direct.data(), reference.data(),
                    static_cast<size_t>(direct.numel()) * sizeof(float)) == 0;
    res.direct_ms =
        TimeBest(reps, [&] { Conv2dForward(x, w, bias, spec); }) * 1e3;
    res.reference_ms =
        TimeBest(reps, [&] { Im2ColSgemmConv(x, w, bias, spec); }) * 1e3;
    const double flops = 2.0 * static_cast<double>(direct.numel()) *
                         static_cast<double>(shape.c * shape.k * shape.k);
    res.direct_gflops = flops / (res.direct_ms * 1e-3) / 1e9;
    res.reference_gflops = flops / (res.reference_ms * 1e-3) / 1e9;
    results.push_back(res);
  }
  return results;
}

long MinorFaults() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Times `reps` calls of fn() after one untimed warm-up.
template <typename Fn>
CallResult TimeCalls(int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  const long faults = MinorFaults();
  const int64_t nodes = TapedNodeCount();
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  CallResult res;
  res.reps = reps;
  res.minor_faults = static_cast<double>(MinorFaults() - faults) / reps;
  res.tape_nodes = static_cast<double>(TapedNodeCount() - nodes) / reps;
  std::sort(ms.begin(), ms.end());
  res.best_ms = ms.front();
  res.median_ms = ms[ms.size() / 2];
  return res;
}

// The end-to-end benchmark's ingest_model model: 128x128 freight raster,
// six-layer hierarchy (window 2, max scale 32), one weekly observation,
// 8 channels. The net is untrained; its weights do not change the work.
struct IngestModel {
  std::unique_ptr<STDataset> dataset;
  std::unique_ptr<One4AllNet> net;
};

IngestModel MakeIngestModel() {
  SyntheticDataOptions data = SyntheticDataOptions::FreightPreset(128, 128);
  TemporalFeatureSpec spec;
  spec.trend_len = 1;
  data.num_timesteps = spec.MinHistory() + 24;
  auto flows = GenerateSyntheticFlows(data);
  O4A_CHECK(flows.ok()) << flows.status().ToString();
  auto dataset = STDataset::Create(flows.MoveValueUnsafe(),
                                   Hierarchy::Uniform(128, 128, 2, 32), spec);
  O4A_CHECK(dataset.ok()) << dataset.status().ToString();
  One4AllNetOptions net_options;
  net_options.channels = 8;
  net_options.seed = 3;
  IngestModel model;
  model.dataset = std::make_unique<STDataset>(dataset.MoveValueUnsafe());
  model.net = std::make_unique<One4AllNet>(model.dataset->hierarchy(),
                                           model.dataset->spec(), net_options);
  return model;
}

// One serving inference per step as the stream ingestor makes it: through
// MakeOne4AllInference (whose buffer pool persists across calls), batch
// 1, on the calling thread with no compute pool.
CallResult RunInferServingFrames(const IngestModel& model, int reps,
                                 double* checksum) {
  const STDataset& dataset = *model.dataset;
  const TemporalInput input =
      dataset.BuildInput({dataset.spec().MinHistory()});
  const FrameInference inference =
      MakeOne4AllInference(model.net.get(), &dataset);
  CallResult res = TimeCalls(reps, [&] {
    Result<std::vector<Tensor>> frames = inference(0, input);
    O4A_CHECK(frames.ok());
    *checksum += frames->front()[0];
  });
  res.shape = "128x128_6layers_c8";
  res.threads = 1;
  return res;
}

// One batch-16 PredictAllLayers on the shared compute pool, inside one
// enclosing NoTapeScope as MauPipeline::Build runs its ~11 batches.
CallResult RunPredictAllLayersB16(const IngestModel& model, int reps,
                                  double* checksum) {
  const STDataset& dataset = *model.dataset;
  std::vector<int64_t> batch;
  for (int64_t i = 0; i < 16; ++i) {
    batch.push_back(dataset.spec().MinHistory() + i);
  }
  ThreadPool* shared = ResolveComputePool();
  ScopedComputePool scoped_pool(shared);
  const NoTapeScope no_tape;
  CallResult res = TimeCalls(reps, [&] {
    const std::vector<Tensor> preds =
        model.net->PredictAllLayers(dataset, batch);
    *checksum += preds.front()[0];
  });
  res.shape = "b16_128x128_6layers_c8";
  res.threads = shared != nullptr ? shared->num_threads() : 1;
  return res;
}

std::string CallJson(const CallResult& c) {
  std::ostringstream js;
  js << "{\"shape\": \"" << c.shape << "\", \"threads\": " << c.threads
     << ", \"reps\": " << c.reps
     << ", \"best_ms\": " << TablePrinter::Num(c.best_ms, 3)
     << ", \"median_ms\": " << TablePrinter::Num(c.median_ms, 3)
     << ", \"minor_faults_per_call\": " << TablePrinter::Num(c.minor_faults, 1)
     << ", \"tape_nodes_per_call\": " << TablePrinter::Num(c.tape_nodes, 1)
     << "}";
  return js.str();
}

void WriteJson(const std::string& path, int reps,
               const std::vector<GemmResult>& gemm,
               const std::vector<GemmThreadResult>& gemm_threads,
               const std::vector<ConvResult>& conv,
               const std::vector<ServingConvResult>& serving_conv,
               const CallResult& infer, const CallResult& predict_b16) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"kernels\",\n";
  js << "  \"sgemm_kernel\": \"" << SgemmKernelName() << "\",\n";
  js << "  \"hardware_threads\": " << ThreadPool::HardwareThreads() << ",\n";
  js << "  \"repetitions\": " << reps << ",\n";
  js << "  \"gemm\": [\n";
  for (size_t i = 0; i < gemm.size(); ++i) {
    const GemmResult& g = gemm[i];
    js << "    {\"size\": " << g.size << ", \"naive_gflops\": "
       << TablePrinter::Num(g.naive_gflops, 3) << ", \"opt_gflops\": "
       << TablePrinter::Num(g.opt_gflops, 3) << ", \"speedup\": "
       << TablePrinter::Num(g.speedup, 3) << "}"
       << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"gemm_threads\": [\n";
  for (size_t i = 0; i < gemm_threads.size(); ++i) {
    const GemmThreadResult& g = gemm_threads[i];
    js << "    {\"size\": " << g.size << ", \"threads\": " << g.threads
       << ", \"gflops\": " << TablePrinter::Num(g.gflops, 3)
       << ", \"oversubscribed\": "
       << (g.oversubscribed ? "true" : "false") << "}"
       << (i + 1 < gemm_threads.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"conv2d\": [\n";
  for (size_t i = 0; i < conv.size(); ++i) {
    const ConvResult& c = conv[i];
    js << "    {\"shape\": \"" << c.shape << "\", \"threads\": "
       << c.threads << ", \"forward_ms\": "
       << TablePrinter::Num(c.forward_ms, 4) << ", \"backward_ms\": "
       << TablePrinter::Num(c.backward_ms, 4) << ", \"forward_speedup\": "
       << TablePrinter::Num(c.forward_speedup, 3)
       << ", \"backward_speedup\": "
       << TablePrinter::Num(c.backward_speedup, 3)
       << ", \"forward_scaling\": "
       << TablePrinter::Num(c.forward_scaling, 3)
       << ", \"backward_scaling\": "
       << TablePrinter::Num(c.backward_scaling, 3) << "}"
       << (i + 1 < conv.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"conv2d_serving_forward\": [\n";
  for (size_t i = 0; i < serving_conv.size(); ++i) {
    const ServingConvResult& c = serving_conv[i];
    js << "    {\"shape\": \"" << c.shape << "\", \"direct_ms\": "
       << TablePrinter::Num(c.direct_ms, 4) << ", \"im2col_sgemm_ms\": "
       << TablePrinter::Num(c.reference_ms, 4) << ", \"direct_gflops\": "
       << TablePrinter::Num(c.direct_gflops, 2)
       << ", \"im2col_sgemm_gflops\": "
       << TablePrinter::Num(c.reference_gflops, 2)
       << ", \"byte_identical\": " << (c.identical ? "true" : "false")
       << "}" << (i + 1 < serving_conv.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"infer_serving_frames\": " << CallJson(infer) << ",\n";
  js << "  \"predict_all_layers_b16\": " << CallJson(predict_b16) << ",\n";
  js << "  \"host\": " << HostEnvelopeJson() << "\n";
  js << "}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing\n";
    return;
  }
  out << js.str();
  std::cout << "wrote " << path << "\n";
}

int main_impl() {
  const int reps = Reps();
  std::cout << "SGEMM micro-kernel: " << SgemmKernelName() << ", "
            << ThreadPool::HardwareThreads() << " hardware threads, "
            << reps << " repetitions (best-of)\n\n";

  // Checksums keep the optimizer from eliding timed work and give a
  // quick numeric drift signal between runs.
  double checksum = 0.0;
  std::vector<GemmThreadResult> gemm_threads;
  const std::vector<GemmResult> gemm = RunGemm(reps, &gemm_threads,
                                               &checksum);
  const std::vector<ConvResult> conv = RunConv(reps, &checksum);
  const std::vector<ServingConvResult> serving_conv =
      RunServingConv(reps, &checksum);
  const IngestModel model = MakeIngestModel();
  // Enough calls for a median: ~1 s of inference at the default reps.
  const CallResult infer = RunInferServingFrames(model, 100 * reps, &checksum);
  const CallResult predict_b16 =
      RunPredictAllLayersB16(model, 5 * reps, &checksum);

  TablePrinter gemm_table("SGEMM: blocked+vectorized vs naive (1 thread)");
  gemm_table.SetHeader({"size", "naive GFLOP/s", "opt GFLOP/s", "speedup"});
  for (const GemmResult& g : gemm) {
    gemm_table.AddRow({std::to_string(g.size),
                       TablePrinter::Num(g.naive_gflops, 2),
                       TablePrinter::Num(g.opt_gflops, 2),
                       TablePrinter::Num(g.speedup, 2)});
  }
  gemm_table.Print(std::cout);

  if (!gemm_threads.empty()) {
    TablePrinter mt_table("SGEMM row-block fan-out");
    mt_table.SetHeader({"size", "threads", "GFLOP/s", "note"});
    for (const GemmThreadResult& g : gemm_threads) {
      mt_table.AddRow({std::to_string(g.size), std::to_string(g.threads),
                       TablePrinter::Num(g.gflops, 2),
                       g.oversubscribed ? "oversubscribed" : ""});
    }
    mt_table.Print(std::cout);
  }

  TablePrinter conv_table("Conv2d batch-parallel latency (best-of)");
  conv_table.SetHeader({"shape", "threads", "fwd ms", "bwd ms",
                        "fwd vs naive", "bwd vs naive", "fwd scaling",
                        "bwd scaling"});
  for (const ConvResult& c : conv) {
    conv_table.AddRow({c.shape, std::to_string(c.threads),
                       TablePrinter::Num(c.forward_ms, 3),
                       TablePrinter::Num(c.backward_ms, 3),
                       TablePrinter::Num(c.forward_speedup, 2),
                       TablePrinter::Num(c.backward_speedup, 2),
                       TablePrinter::Num(c.forward_scaling, 2),
                       TablePrinter::Num(c.backward_scaling, 2)});
  }
  conv_table.Print(std::cout);

  TablePrinter serving_table(
      "Conv2dForward at serving shapes: direct vs Im2Col + Sgemm (batch 1, "
      "1 thread, best-of)");
  serving_table.SetHeader({"shape", "direct ms", "im2col ms",
                           "direct GFLOP/s", "im2col GFLOP/s",
                           "byte-identical"});
  for (const ServingConvResult& c : serving_conv) {
    serving_table.AddRow({c.shape, TablePrinter::Num(c.direct_ms, 3),
                          TablePrinter::Num(c.reference_ms, 3),
                          TablePrinter::Num(c.direct_gflops, 2),
                          TablePrinter::Num(c.reference_gflops, 2),
                          c.identical ? "yes" : "NO"});
  }
  serving_table.Print(std::cout);
  TablePrinter model_table("Model passes (no tape; per call)");
  model_table.SetHeader({"pass", "shape", "threads", "reps", "best ms",
                         "median ms", "minor faults", "tape nodes"});
  auto add_pass = [&](const char* name, const CallResult& c) {
    model_table.AddRow({name, c.shape, std::to_string(c.threads),
                        std::to_string(c.reps),
                        TablePrinter::Num(c.best_ms, 3),
                        TablePrinter::Num(c.median_ms, 3),
                        TablePrinter::Num(c.minor_faults, 1),
                        TablePrinter::Num(c.tape_nodes, 1)});
  };
  add_pass("InferServingFrames", infer);
  add_pass("PredictAllLayers", predict_b16);
  model_table.Print(std::cout);
  std::cout << "checksum " << checksum << "\n\n";

  const char* json_env = std::getenv("O4A_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_kernels.json";
  if (!json_path.empty()) {
    WriteJson(json_path, reps, gemm, gemm_threads, conv, serving_conv,
              infer, predict_b16);
  }

  // Acceptance: >= 3x over naive at the 256..1024 sizes, single thread.
  bool speedup_ok = true;
  for (const GemmResult& g : gemm) {
    if (g.size >= 256 && g.speedup < 3.0) speedup_ok = false;
  }
  std::cout << (speedup_ok ? "[SHAPE OK]   " : "[SHAPE MISS] ")
            << "optimized GEMM >= 3x naive at 256-1024 square sizes\n";
  const char* strict_env = std::getenv("O4A_BENCH_STRICT");
  const bool strict = strict_env == nullptr || atoi(strict_env) != 0;
  if (!strict && !speedup_ok) {
    std::cout << "(O4A_BENCH_STRICT=0: shape miss is informational)\n";
    speedup_ok = true;
  }

  // Conv scaling is informational on boxes without enough cores to run
  // 4 real workers.
  if (ThreadPool::HardwareThreads() >= 4) {
    bool scaling_ok = false;
    for (const ConvResult& c : conv) {
      if (c.threads == 4 && c.forward_scaling > 2.5) scaling_ok = true;
    }
    std::cout << (scaling_ok ? "[SHAPE OK]   " : "[SHAPE MISS] ")
              << "Conv2dForward scales with 4 worker threads\n";
  } else {
    std::cout << "[SHAPE N/A]  conv thread scaling (host has "
              << ThreadPool::HardwareThreads() << " hardware thread(s))\n";
  }
  return speedup_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace one4all

int main() {
  std::cout << "=== Kernel throughput: blocked SGEMM + batch-parallel "
               "Conv2d ===\n";
  return one4all::bench::main_impl();
}
