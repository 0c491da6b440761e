// Fixed-size thread pool with a bounded queue: the one pool behind the
// offline utilities (convert / merge) and the servers' query, relay and
// ingest workers.
//
// Two ways in, one queue:
//  - submit() blocks while the queue is full, so a batch producer
//    enumerating thousands of work items is throttled to what the
//    workers can absorb instead of materializing the whole backlog;
//  - trySubmit() never blocks: when the queue is full (or the pool is
//    stopping) it refuses, and a server turns that refusal into an
//    "overloaded" reply instead of queueing unboundedly and falling over
//    later.
//
// A job must not throw: as from any thread's entry function, an escaping
// exception terminates the program. parallelFor() catches and forwards.
//
// parallelFor() is the pattern every pipeline stage actually needs: run
// fn(0..n-1) on up to `jobs` workers, wait for all of them, and rethrow
// the first exception. With jobs <= 1 it degenerates to a plain loop, so
// the sequential reference path shares this code exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace ute {

class ThreadPool {
 public:
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;  ///< refused: queue full or pool stopping
    std::uint64_t executed = 0;
  };

  /// Spawns `workers` threads (at least 1). At most `queueCapacity` jobs
  /// wait unstarted (0 = 2x workers).
  explicit ThreadPool(std::size_t workers, std::size_t queueCapacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `job`, blocking while the queue is full. Throws UsageError
  /// after shutdown(), including when shutdown() releases a blocked call.
  void submit(std::function<void()> job) UTE_EXCLUDES(mu_);

  /// Enqueues `job`, or returns false without blocking when the queue is
  /// full or the pool is shutting down.
  bool trySubmit(std::function<void()> job) UTE_EXCLUDES(mu_);

  /// Blocks until every job submitted so far has finished executing.
  void wait() UTE_EXCLUDES(mu_);

  /// Stops accepting work, drains jobs already queued, joins workers.
  /// Called by the destructor; calling it earlier surfaces errors.
  void shutdown() UTE_EXCLUDES(mu_);

  /// Runs fn(0..n-1) across the pool's workers, waits for completion,
  /// and rethrows the first exception any call threw. Remaining indices
  /// are skipped (not cancelled mid-call) once a call has thrown.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  Stats stats() const UTE_EXCLUDES(mu_);
  std::size_t workerCount() const { return threads_.size(); }
  std::size_t maxQueue() const { return maxQueue_; }

 private:
  void workerLoop() UTE_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar notEmpty_;
  CondVar notFull_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ UTE_GUARDED_BY(mu_);
  std::size_t maxQueue_;
  /// Jobs taken off the queue whose call has not returned yet.
  std::size_t running_ UTE_GUARDED_BY(mu_) = 0;
  bool stopping_ UTE_GUARDED_BY(mu_) = false;
  Stats stats_ UTE_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
};

/// Maps a --jobs style argument to a worker count: values <= 0 mean "one
/// per hardware thread" (at least 1).
std::size_t effectiveJobs(int jobs);

/// One-shot parallel loop: runs fn(0..n-1) on up to `jobs` threads and
/// rethrows the first exception. jobs <= 1 (or n <= 1) runs inline on the
/// calling thread — the deterministic sequential reference path.
void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace ute
