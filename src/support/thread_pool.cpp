#include "support/thread_pool.h"

#include <algorithm>
#include <exception>

#include "support/errors.h"

namespace ute {

ThreadPool::ThreadPool(std::size_t workers, std::size_t queueCapacity) {
  if (workers == 0) workers = 1;
  maxQueue_ = queueCapacity == 0 ? workers * 2 : queueCapacity;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> job) {
  {
    MutexLock lock(mu_);
    while (!stopping_ && queue_.size() >= maxQueue_) notFull_.wait(mu_);
    if (stopping_) {
      ++stats_.rejected;
      throw UsageError("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(job));
    ++stats_.accepted;
  }
  notEmpty_.notifyOne();
}

bool ThreadPool::trySubmit(std::function<void()> job) {
  {
    MutexLock lock(mu_);
    if (stopping_ || queue_.size() >= maxQueue_) {
      ++stats_.rejected;
      return false;
    }
    queue_.push_back(std::move(job));
    ++stats_.accepted;
  }
  notEmpty_.notifyOne();
  return true;
}

void ThreadPool::wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || running_ != 0) idle_.wait(mu_);
}

void ThreadPool::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  notEmpty_.notifyAll();
  notFull_.notifyAll();  // blocked submit() calls throw
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::workerLoop() {
  bool finishedOne = false;
  for (;;) {
    std::function<void()> job;
    {
      // One lock per job: retire the previous job and take the next.
      MutexLock lock(mu_);
      if (finishedOne && --running_ == 0 && queue_.empty()) {
        idle_.notifyAll();
      }
      while (!stopping_ && queue_.empty()) notEmpty_.wait(mu_);
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      ++stats_.executed;
    }
    notFull_.notifyOne();
    job();
    finishedOne = true;
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  Mutex errMu;
  std::exception_ptr firstError;
  for (std::size_t i = 0; i < n; ++i) {
    submit([&, i] {
      {
        MutexLock lock(errMu);
        if (firstError) return;
      }
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(errMu);
        if (!firstError) firstError = std::current_exception();
      }
    });
  }
  wait();
  if (firstError) std::rethrow_exception(firstError);
}

std::size_t effectiveJobs(int jobs) {
  if (jobs > 0) return static_cast<std::size_t>(jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(jobs, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(workers);
  pool.parallelFor(n, fn);
}

}  // namespace ute
