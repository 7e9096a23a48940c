// Fixed-size worker pool for the online serving layer: the QueryExecutor
// fans a plan's regions out across workers, and the benchmark harness
// reuses one pool across measurement rounds to keep thread start-up out
// of the timed section.
#ifndef ONE4ALL_CORE_THREAD_POOL_H_
#define ONE4ALL_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace one4all {

/// \brief Fixed pool of worker threads draining one shared FIFO queue.
///
/// Tasks must not Submit() to or Wait() on the pool they run inside
/// (no nesting); ParallelFor obeys this by never re-entering the pool.
class ThreadPool {
 public:
  /// \param num_threads Workers to start; clamped to >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueues a task; runs as soon as a worker frees up.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every task submitted so far has finished.
  void Wait();

  /// \brief Splits [0, n) into contiguous chunks and runs `body(begin,
  /// end)` across the workers; blocks until all chunks finish. Small or
  /// single-threaded workloads run inline on the calling thread.
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body);

  /// \brief std::thread::hardware_concurrency() with a floor of 1.
  static int HardwareThreads();

  /// \brief Lazily-created process-wide pool with HardwareThreads()
  /// workers. The shared handle that Trainer, prediction ingest and the
  /// query executor default to, so one worker set serves training
  /// epochs, tensor kernels and query specs instead of each layer
  /// spinning up its own threads. Never destroyed (workers idle when
  /// unused).
  static ThreadPool* Shared();

  /// \brief True when the calling thread is a worker of any ThreadPool.
  /// Code that would otherwise *default* to fanning out over Shared()
  /// must stay sequential on worker threads — waiting on a pool from one
  /// of its own workers deadlocks once every worker blocks that way.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: task or stop
  std::condition_variable idle_cv_;  ///< signals Wait(): pending hit zero
  int64_t pending_ = 0;              ///< queued + currently running tasks
  bool stop_ = false;
};

}  // namespace one4all

#endif  // ONE4ALL_CORE_THREAD_POOL_H_
