#include "helpers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/logging.h"

namespace e2ebench {

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  return 100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank, with a small tolerance so 99% of 1000 is rank 990 and
  // not 991 after floating-point rounding.
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {
constexpr int64_t kCalibGrid = 256;
constexpr int kCalibRects = 4096;
constexpr uint32_t kCalibChaseLength = 1u << 19;  // 2 MiB of uint32_t
constexpr int kCalibChaseSteps = 2048;
}  // namespace

HostCalibrator::HostCalibrator()
    : grid_(static_cast<size_t>(kCalibGrid * kCalibGrid)),
      sat_(static_cast<size_t>((kCalibGrid + 1) * (kCalibGrid + 1)), 0.0),
      next_(kCalibChaseLength) {
  one4all::Rng rng(0xCA11B);
  for (float& v : grid_) v = static_cast<float>(rng.Uniform());
  // One random cycle through every slot (Sattolo's shuffle), so the chase
  // never settles into a short, cached loop.
  std::vector<uint32_t> order(kCalibChaseLength);
  std::iota(order.begin(), order.end(), 0u);
  for (uint32_t i = kCalibChaseLength - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(i)]);
  }
  for (uint32_t i = 0; i < kCalibChaseLength; ++i) {
    next_[order[i]] = order[(i + 1) % kCalibChaseLength];
  }
}

double HostCalibrator::RunMicros() {
  const auto start = std::chrono::steady_clock::now();
  const int64_t w = kCalibGrid + 1;
  for (int64_t r = 0; r < kCalibGrid; ++r) {
    double row = 0.0;
    for (int64_t c = 0; c < kCalibGrid; ++c) {
      row += grid_[static_cast<size_t>(r * kCalibGrid + c)];
      sat_[static_cast<size_t>((r + 1) * w + c + 1)] =
          sat_[static_cast<size_t>(r * w + c + 1)] + row;
    }
  }
  one4all::Rng rng(0x5EED);
  double sum = 0.0;
  for (int i = 0; i < kCalibRects; ++i) {
    const int64_t r0 = static_cast<int64_t>(rng.UniformInt(kCalibGrid));
    const int64_t c0 = static_cast<int64_t>(rng.UniformInt(kCalibGrid));
    const int64_t r1 = r0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(kCalibGrid - r0)));
    const int64_t c1 = c0 + 1 + static_cast<int64_t>(rng.UniformInt(
                                    static_cast<uint64_t>(kCalibGrid - c0)));
    sum += sat_[static_cast<size_t>(r1 * w + c1)] -
           sat_[static_cast<size_t>(r0 * w + c1)] -
           sat_[static_cast<size_t>(r1 * w + c0)] +
           sat_[static_cast<size_t>(r0 * w + c0)];
  }
  uint32_t at = chase_;
  for (int i = 0; i < kCalibChaseSteps; ++i) at = next_[at];
  chase_ = at;
  sink_ = sum + static_cast<double>(at);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  O4A_CHECK(n > 0);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Sample(one4all::Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double ZipfSampler::Probability(size_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

std::vector<double> PoissonDueTimes(double rate_per_s, double duration_s,
                                    one4all::Rng* rng) {
  std::vector<double> due;
  if (rate_per_s <= 0.0) return due;
  double t = 0.0;
  while (true) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng->Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

int64_t ChurnBlockAt(int64_t t, int64_t height, int64_t width) {
  const int64_t blocks = (height / kChurnBlock) * (width / kChurnBlock);
  return t % blocks;
}

void ApplyLowChurn(std::vector<one4all::Tensor>* frames) {
  if (frames->empty()) return;
  const int64_t h = (*frames)[0].dim(0), w = (*frames)[0].dim(1);
  O4A_CHECK(h % kChurnBlock == 0 && w % kChurnBlock == 0)
      << "low-churn stream needs a raster that is a multiple of "
      << kChurnBlock;
  const int64_t blocks_w = w / kChurnBlock;
  for (size_t t = 1; t < frames->size(); ++t) {
    one4all::Tensor fresh = std::move((*frames)[t]);
    one4all::Tensor next = (*frames)[t - 1];
    const int64_t block = ChurnBlockAt(static_cast<int64_t>(t), h, w);
    const int64_t r0 = (block / blocks_w) * kChurnBlock;
    const int64_t c0 = (block % blocks_w) * kChurnBlock;
    for (int64_t r = r0; r < r0 + kChurnBlock; ++r) {
      std::memcpy(next.data() + r * w + c0, fresh.data() + r * w + c0,
                  sizeof(float) * kChurnBlock);
    }
    (*frames)[t] = std::move(next);
  }
}

HostEnvelope ReadHostEnvelope(const std::string& build_type,
                              const std::string& build_flags) {
  HostEnvelope env;
  env.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        env.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (env.cpu_model.empty()) env.cpu_model = "unknown";
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.build_type = build_type;
  env.build_flags = build_flags;
  return env;
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double StealMs() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {0};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  if (cpu != "cpu") return 0.0;
  const double ticks_per_s = 100.0;  // USER_HZ on Linux
  return fields[7] * 1e3 / ticks_per_s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace e2ebench
