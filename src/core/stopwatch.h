// Wall-clock timing helpers for the benchmark harness, the offline
// pipeline and the serving runtime's end-to-end latency histograms. The
// query executor reads no clock: its stage costs are trace spans.
#ifndef ONE4ALL_CORE_STOPWATCH_H_
#define ONE4ALL_CORE_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace one4all {

/// \brief Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// \brief Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace one4all

#endif  // ONE4ALL_CORE_STOPWATCH_H_
