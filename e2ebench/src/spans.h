// Benchmark-side spans: recorded around calls into the system from the
// benchmark's own code, kept in memory, reduced to per-name self times
// (a span's duration minus the durations of its child spans) when the
// run ends.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

class SpanLog {
 public:
  struct Span {
    const char* name;  ///< a string literal
    int64_t parent = -1;  ///< index of the parent span, -1 for a root
    std::chrono::steady_clock::time_point start, end;
  };

  /// \brief Appends a finished span (any thread); returns its index.
  int64_t Add(const char* name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end,
              int64_t parent = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, start, end});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Begin's default parent: the innermost open span.
  static constexpr int64_t kInnermost = -2;

  /// \brief Opens a span under the innermost open one or under `parent`,
  /// an earlier span that may have ended — its self time then excludes
  /// this one (single-threaded nesting, used by the replay); close it
  /// with End.
  int64_t Begin(const char* name, int64_t parent = kInnermost) {
    if (parent == kInnermost) parent = open_.empty() ? -1 : open_.back();
    const auto now = std::chrono::steady_clock::now();
    const int64_t id = Add(name, now, now, parent);
    open_.push_back(id);
    return id;
  }
  void End() {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(open_.back())].end = now;
    open_.pop_back();
  }

  /// \brief Self time in microseconds of every span, grouped by name.
  std::map<std::string, std::vector<double>> SelfMicrosByName() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += Micros(spans_[i]);
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -= Micros(spans_[i]);
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(self[i]);
    }
    return out;
  }

  /// \brief Drops every finished span (no span may be open).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

 private:
  static double Micros(const Span& span) {
    return std::chrono::duration<double, std::micro>(span.end - span.start)
        .count();
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  ///< Begin/End stack (replay thread only)
};

/// \brief RAII Begin/End pair on a SpanLog.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name,
            int64_t parent = SpanLog::kInnermost)
      : log_(log) {
    log_->Begin(name, parent);
  }
  ~SpanScope() { log_->End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
