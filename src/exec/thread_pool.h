// Fixed-size work-stealing thread pool for fanning out independent
// simulation runs.
//
// The simulation itself stays strictly single-threaded — every World owns a
// private Engine/Rng and virtual time never crosses a thread boundary. The
// pool only schedules whole runs: coarse tasks (milliseconds to seconds of
// work each), so a mutex-per-deque design is plenty and keeps the code
// auditable under TSan.
//
// Tasks are grouped into TaskGroups. TaskGroup::wait() "helps": while its
// tasks are outstanding it executes queued work instead of blocking, so
// batches may nest (a task fanning out its own sub-batch on the same pool)
// without deadlocking even when every worker is inside a wait().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace spectra::exec {

class ThreadPool;

// One batch of tasks. submit() may be called from any thread, including
// from inside another task on the same pool. wait() returns once every
// submitted task has finished and rethrows the first exception a task
// threw (remaining tasks still run to completion).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup();

  void submit(std::function<void()> task);
  void wait();

 private:
  friend class ThreadPool;

  void task_done(std::exception_ptr error);

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
};

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  // std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_concurrency();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void enqueue(Task task);
  // Pop-or-steal one task and run it; false if no task was runnable.
  bool run_one_task();
  void worker_loop(std::size_t index);
  static void run(Task task);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;
  std::mutex mu_;                 // guards inject_ and stop_
  std::condition_variable work_cv_;
  std::deque<Task> inject_;       // submissions from non-worker threads
  bool stop_ = false;
};

// Run fn(i) for each i in [0, n). Uses `pool` when given, otherwise runs
// inline in index order — the sequential reference path for determinism
// tests.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(*pool);
  for (std::size_t i = 0; i < n; ++i) {
    group.submit([&fn, i] { fn(i); });
  }
  group.wait();
}

}  // namespace spectra::exec
