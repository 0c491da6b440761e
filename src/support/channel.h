// Bounded MPMC channel: a blocking hand-off between threads.
//
// A fixed-capacity FIFO connecting any number of producers to any number
// of consumers. send() blocks while the channel is full (backpressure:
// a fast producer cannot run arbitrarily far ahead of its consumer),
// trySend() refuses instead, and receive() blocks while it is empty.
// The ingest server's reactor thread feeds the streaming merge thread
// with trySend(): the channel is sized so that a send to it never finds
// it full. close() wakes everyone: pending sends return false, receives
// drain what is queued and then return nullopt.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "support/thread_annotations.h"

namespace ute {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while full. Returns false (dropping `value`) once closed.
  bool send(T value) UTE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (queue_.size() >= capacity_ && !closed_) sendCv_.wait(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(value));
    recvCv_.notifyOne();
    return true;
  }

  /// Never blocks. Returns false (dropping `value`) when full or closed.
  bool trySend(T value) UTE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(value));
    recvCv_.notifyOne();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> receive() UTE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (queue_.empty() && !closed_) recvCv_.wait(mu_);
    if (queue_.empty()) return std::nullopt;
    std::optional<T> v(std::move(queue_.front()));
    queue_.pop_front();
    sendCv_.notifyOne();
    return v;
  }

  /// Idempotent. Unblocks all senders and receivers; queued items remain
  /// receivable.
  void close() UTE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    sendCv_.notifyAll();
    recvCv_.notifyAll();
  }

  bool closed() const UTE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar sendCv_;
  CondVar recvCv_;
  std::deque<T> queue_ UTE_GUARDED_BY(mu_);
  bool closed_ UTE_GUARDED_BY(mu_) = false;
};

}  // namespace ute
