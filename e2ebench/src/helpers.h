// Input generators and statistics of the end-to-end benchmark: the
// percentile rule, the Zipf region sampler, the Poisson due-time
// schedule, the low-churn stream transform, and the host/build envelope.
// Everything here is deterministic in its seed and free of the serving
// system, so tests/helpers_test.cc can pin it down.
#ifndef E2EBENCH_HELPERS_H_
#define E2EBENCH_HELPERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace e2ebench {

/// \brief The highest percentile of `n` samples that still has at least
/// `min_beyond` samples above it: 100 * (n - min_beyond) / n, or 0 when
/// n <= min_beyond. A p99 is only reported from >= 1000 samples.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// \brief Nearest-rank percentile q in [0, 100] of `values` (sorted
/// copy): the value at rank ceil(q/100 * n), so exactly n - rank samples
/// lie beyond it. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// \brief Median, i.e. Percentile(values, 50).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// \brief A fixed piece of CPU and memory work that belongs to the
/// benchmark, not to the serving system: a summed-area table over a
/// 256x256 grid, 4096 pseudo-random rectangle sums read from it, and a
/// 2048-step pointer chase through a 2 MiB random cycle. Its time says
/// how fast the host runs at the moment, whatever the program under test
/// does, so it can take the host's drift out of the program's timings.
class HostCalibrator {
 public:
  HostCalibrator();

  /// \brief Runs the work once; returns its wall time in microseconds.
  double RunMicros();

 private:
  std::vector<float> grid_;
  std::vector<double> sat_;
  std::vector<uint32_t> next_;
  uint32_t chase_ = 0;
  volatile double sink_ = 0.0;
};

/// \brief Zipf(s) over ranks [0, n): P(k) proportional to 1 / (k+1)^s,
/// sampled by binary search over the cumulative distribution.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  size_t Sample(one4all::Rng* rng) const;
  double Probability(size_t k) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// \brief Open-loop arrival schedule: due times (seconds from the phase
/// start, ascending, all < duration_s) of a Poisson process of the given
/// rate, i.e. exponential inter-arrival gaps.
std::vector<double> PoissonDueTimes(double rate_per_s, double duration_s,
                                    one4all::Rng* rng);

/// \brief Edge of the square churn block of the low-churn stream, in
/// atomic cells: one SAT tile, and the coarsest scale of P.
constexpr int64_t kChurnBlock = 32;

/// \brief Turns a fully-changing stream into the low-churn one: frame t
/// keeps frame t-1 everywhere except block (t mod #blocks) — row-major
/// kChurnBlock x kChurnBlock squares — which takes frame t's own
/// generated values. Every out-of-block cell is bit-identical to t-1.
void ApplyLowChurn(std::vector<one4all::Tensor>* frames);

/// \brief Row-major index of the churn block frame t changes.
int64_t ChurnBlockAt(int64_t t, int64_t height, int64_t width);

/// \brief Host and build description recorded with every result.
struct HostEnvelope {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string build_flags;
};

HostEnvelope ReadHostEnvelope(const std::string& build_type,
                              const std::string& build_flags);

/// \brief Resident set size of this process in MiB (VmRSS), 0 when
/// /proc is unavailable.
double ResidentMb();

/// \brief Returns free heap pages to the OS (glibc malloc_trim), so a
/// following ResidentMb counts the memory in use; a no-op elsewhere.
void TrimHeap();

/// \brief CPU time the hypervisor gave other guests while this guest's
/// CPUs wanted to run (the "steal" column of /proc/stat), in ms summed
/// over CPUs since boot; 0 when /proc is unavailable.
double StealMs();

/// \brief Escapes a string for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace e2ebench

#endif  // E2EBENCH_HELPERS_H_
