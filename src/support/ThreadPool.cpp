//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace ipcp;

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = 1;
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  TasksAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Tasks.push_back(std::move(Task));
    PeakUnfinished = std::max(PeakUnfinished, ++Unfinished);
  }
  TasksAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Unfinished == 0; });
}

ThreadPool::Depth ThreadPool::depth() const {
  std::unique_lock<std::mutex> Lock(Mutex);
  return {Unfinished, PeakUnfinished};
}

unsigned ThreadPool::defaultConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      TasksAvailable.wait(Lock, [this] { return Stopping || !Tasks.empty(); });
      if (Tasks.empty())
        return; // Stopping and drained.
      Task = std::move(Tasks.front());
      Tasks.pop_front();
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      if (--Unfinished == 0)
        AllIdle.notify_all();
    }
  }
}
