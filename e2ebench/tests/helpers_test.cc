// Tests of the benchmark's own input generators and statistics. Plain
// checks, no framework: exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "helpers.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using e2ebench::HighestSupportedPercentile;
using e2ebench::Percentile;

void TestPercentileRule() {
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(10) == 0.0);
  EXPECT(HighestSupportedPercentile(0) == 0.0);
  EXPECT(std::abs(HighestSupportedPercentile(1800) - 99.4444) < 1e-3);
  EXPECT(HighestSupportedPercentile(999) < 99.0);

  // At the supported percentile exactly ten samples lie beyond the
  // reported value.
  for (const size_t n : {20u, 100u, 1000u, 1234u}) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(static_cast<double>(n - i));
    const double p = Percentile(values, HighestSupportedPercentile(n));
    size_t beyond = 0;
    for (const double v : values) beyond += v > p ? 1 : 0;
    EXPECT(beyond == 10);
  }
  EXPECT(Percentile({3.0, 1.0, 2.0}, 50.0) == 2.0);
  EXPECT(Percentile({}, 50.0) == 0.0);
}

void TestZipfSampler() {
  const e2ebench::ZipfSampler zipf(1000, 1.0);
  double total = 0.0;
  for (size_t k = 0; k < zipf.size(); ++k) {
    total += zipf.Probability(k);
    if (k > 0) EXPECT(zipf.Probability(k) <= zipf.Probability(k - 1));
  }
  EXPECT(std::abs(total - 1.0) < 1e-9);
  EXPECT(std::abs(zipf.Probability(0) / zipf.Probability(1) - 2.0) < 1e-9);

  one4all::Rng rng(7), rng_again(7);
  std::vector<int> counts(zipf.size(), 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const size_t k = zipf.Sample(&rng);
    EXPECT(k < zipf.size());
    ++counts[k];
    EXPECT(zipf.Sample(&rng_again) == k);
  }
  for (const size_t k : {0u, 1u, 9u}) {
    const double expected = zipf.Probability(k) * draws;
    EXPECT(std::abs(counts[k] - expected) < 5.0 * std::sqrt(expected));
  }
}

void TestPoissonSchedule() {
  one4all::Rng rng(11), rng_again(11);
  const double rate = 500.0, duration = 20.0;
  const std::vector<double> due =
      e2ebench::PoissonDueTimes(rate, duration, &rng);
  EXPECT(due == e2ebench::PoissonDueTimes(rate, duration, &rng_again));
  const double expected = rate * duration;
  EXPECT(std::abs(static_cast<double>(due.size()) - expected) <
         5.0 * std::sqrt(expected));
  for (size_t i = 0; i < due.size(); ++i) {
    EXPECT(due[i] >= 0.0 && due[i] < duration);
    if (i > 0) EXPECT(due[i] >= due[i - 1]);
  }
  // Exponential gaps: mean 1/rate, standard deviation 1/rate.
  std::vector<double> gaps;
  for (size_t i = 1; i < due.size(); ++i) gaps.push_back(due[i] - due[i - 1]);
  const double mean = e2ebench::Mean(gaps);
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT(std::abs(mean * rate - 1.0) < 0.05);
  EXPECT(std::abs(std::sqrt(var) * rate - 1.0) < 0.05);
  EXPECT(e2ebench::PoissonDueTimes(0.0, 1.0, &rng).empty());
}

void TestLowChurnStream() {
  const int64_t h = 64, w = 96, steps = 9;
  one4all::Rng rng(3);
  std::vector<one4all::Tensor> frames;
  for (int64_t t = 0; t < steps; ++t) {
    frames.push_back(one4all::Tensor::RandomUniform({h, w}, &rng, 0.f, 9.f));
  }
  const std::vector<one4all::Tensor> original = frames;
  e2ebench::ApplyLowChurn(&frames);

  const int64_t block = e2ebench::kChurnBlock;
  EXPECT(std::memcmp(frames[0].data(), original[0].data(),
                     sizeof(float) * h * w) == 0);
  for (int64_t t = 1; t < steps; ++t) {
    const int64_t b = e2ebench::ChurnBlockAt(t, h, w);
    EXPECT(b == t % 6);
    const int64_t r0 = (b / (w / block)) * block;
    const int64_t c0 = (b % (w / block)) * block;
    for (int64_t r = 0; r < h; ++r) {
      for (int64_t c = 0; c < w; ++c) {
        const bool in_block =
            r >= r0 && r < r0 + block && c >= c0 && c < c0 + block;
        const float got = frames[t].at(r, c);
        const float want =
            in_block ? original[t].at(r, c) : frames[t - 1].at(r, c);
        EXPECT(std::memcmp(&got, &want, sizeof(float)) == 0);
      }
    }
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestZipfSampler();
  TestPoissonSchedule();
  TestLowChurnStream();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("helpers_test: all expectations passed\n");
  return 0;
}
