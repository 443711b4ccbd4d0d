// Fixed-size work-stealing thread pool — the execution substrate of the
// parallel campaign drivers (fault::run_campaign, scheme::run_vmin_montecarlo).
//
// Design:
//
//  * one task deque per worker; `submit()` round-robins across deques, a
//    worker pops its own deque LIFO (cache-warm) and steals FIFO from the
//    others when its deque runs dry, so a burst of uneven tasks still keeps
//    every core busy;
//  * workers sleep on a condition variable when the whole pool is empty —
//    an idle pool costs nothing;
//  * the destructor drains every queued task, then joins.  Tasks must not
//    throw (the loop helpers in parallel.hpp catch and forward exceptions
//    before they reach the pool);
//  * pool threads are plain std::threads sharing the process-wide obs
//    registry/tracer, which are concurrency-safe (see obs/metrics.hpp).
//
// Thread-count resolution (`default_threads()`), strongest first: an
// explicit `set_default_threads()` override (bench `--threads` flag), the
// SKS_THREADS environment variable, std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sks::par {

std::size_t default_threads();
// Process-wide override for `default_threads()`; 0 restores automatic
// resolution (SKS_THREADS, then hardware_concurrency).
void set_default_threads(std::size_t n);

class ThreadPool {
 public:
  // `threads == 0` resolves via default_threads().
  explicit ThreadPool(std::size_t threads = 0);

  // Drains every already-submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue one task.  Tasks must be noexcept in effect: an escaping
  // exception would terminate the process (std::thread semantics).
  void submit(std::function<void()> task);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace sks::par
