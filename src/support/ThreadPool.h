//===- support/ThreadPool.h - Fixed-size task thread pool -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size, queue-based thread pool with no external dependencies —
/// the execution engine behind the parallel suite runner (core/SuiteRunner)
/// and the service dispatcher, whose `stats` queue gauges read depth().
/// Workers block on a single shared FIFO queue; there is no work stealing
/// because suite-analysis tasks are coarse (one whole program each) and a
/// shared queue keeps the implementation small and obviously correct.
///
/// wait() blocks until every submitted task has finished, so one pool can
/// serve several sequential parallel phases (analyze programs, then table
/// rows) without being torn down in between.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_THREADPOOL_H
#define IPCP_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ipcp {

/// Fixed-size pool of worker threads draining one FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p ThreadCount workers (clamped to at least one).
  explicit ThreadPool(unsigned ThreadCount);

  /// Joins all workers; pending tasks are still drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution on some worker.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has completed.
  void wait();

  unsigned threadCount() const { return unsigned(Workers.size()); }

  /// Tasks submitted and not yet finished (queued plus running), and
  /// the high-water mark of that count, sampled together.
  struct Depth {
    size_t Now = 0;
    size_t Peak = 0;
  };
  Depth depth() const;

  /// std::thread::hardware_concurrency with a floor of one (the value is
  /// zero on platforms that cannot report it).
  static unsigned defaultConcurrency();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Tasks;
  mutable std::mutex Mutex;
  std::condition_variable TasksAvailable;
  std::condition_variable AllIdle;
  size_t Unfinished = 0; ///< queued + currently running tasks
  size_t PeakUnfinished = 0;
  bool Stopping = false;
};

} // namespace ipcp

#endif // IPCP_SUPPORT_THREADPOOL_H
