// In-memory span recorder for the traced run (--trace 1).
//
// Spans are cut from the benchmark's own code around each public call it
// makes into a layer; nothing inside src/ is instrumented. Each span has
// a name ("layer.call"), a start, an end and the span that caused it
// (its parent, from a per-thread stack). Calls too frequent to record one
// span each (a SLOG sink call per merged record) are summed into their
// enclosing span as aggregated child time instead. Spans stay in memory
// and are written once, at exit.
//
// A span's self time is its duration minus the part of it that its
// children cover (the union of the child intervals, clipped to the
// parent) minus its aggregated child time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_annotations.h"

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t aggregatedChildNs = 0;
  std::uint64_t aggregatedChildCalls = 0;

  std::int64_t durationNs() const { return endNs - startNs; }
};

/// Duration of `span` minus the union of `children` (clipped to the span)
/// minus its aggregated child time. Overlapping children (the same
/// parent's work fanned out over threads) are counted once.
inline std::int64_t selfTimeNs(const SpanRecord& span,
                               std::vector<SpanRecord> children) {
  std::sort(children.begin(), children.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.startNs < b.startNs;
            });
  std::int64_t covered = 0;
  std::int64_t reach = span.startNs;
  for (const SpanRecord& c : children) {
    const std::int64_t s = std::max(c.startNs, reach);
    const std::int64_t e = std::min(c.endNs, span.endNs);
    if (e > s) covered += e - s;
    reach = std::max(reach, std::min(c.endNs, span.endNs));
  }
  return span.durationNs() - covered - span.aggregatedChildNs;
}

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span on the calling thread; returns its id (0 when off).
  std::uint32_t open(std::string name) UTE_EXCLUDES(mu_) {
    if (!enabled()) return 0;
    std::vector<std::uint32_t>& stack = threadStack();
    SpanRecord rec;
    rec.parent = stack.empty() ? 0 : stack.back();
    rec.name = std::move(name);
    rec.startNs = nowNs();
    ute::MutexLock lock(mu_);
    rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(std::move(rec));
    stack.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::uint32_t id) UTE_EXCLUDES(mu_) {
    if (id == 0) return;
    const std::int64_t end = nowNs();
    std::vector<std::uint32_t>& stack = threadStack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    ute::MutexLock lock(mu_);
    spans_[id - 1].endNs = end;
  }

  /// Adds `ns` of aggregated child time to span `id`.
  void addChildTime(std::uint32_t id, std::int64_t ns, std::uint64_t calls)
      UTE_EXCLUDES(mu_) {
    if (id == 0) return;
    ute::MutexLock lock(mu_);
    spans_[id - 1].aggregatedChildNs += ns;
    spans_[id - 1].aggregatedChildCalls += calls;
  }

  /// Span `id` as recorded so far.
  SpanRecord record(std::uint32_t id) const UTE_EXCLUDES(mu_) {
    ute::MutexLock lock(mu_);
    return spans_[id - 1];
  }

  std::vector<SpanRecord> spans() const UTE_EXCLUDES(mu_) {
    ute::MutexLock lock(mu_);
    return spans_;
  }

  /// Closed spans named `name`.
  std::vector<SpanRecord> named(const std::string& name) const
      UTE_EXCLUDES(mu_) {
    ute::MutexLock lock(mu_);
    std::vector<SpanRecord> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name && s.endNs != 0) out.push_back(s);
    }
    return out;
  }

  std::vector<SpanRecord> childrenOf(std::uint32_t id) const
      UTE_EXCLUDES(mu_) {
    ute::MutexLock lock(mu_);
    std::vector<SpanRecord> out;
    for (const SpanRecord& s : spans_) {
      if (s.parent == id && s.endNs != 0) out.push_back(s);
    }
    return out;
  }

  /// Sum of the durations (in seconds) of the closed spans named `name`.
  double totalSeconds(const std::string& name) const {
    std::int64_t ns = 0;
    for (const SpanRecord& s : named(name)) ns += s.durationNs();
    return static_cast<double>(ns) * 1e-9;
  }

  /// Writes every span as one JSON array (one object per line).
  bool write(const std::string& path) const;

 private:
  static std::vector<std::uint32_t>& threadStack() {
    thread_local std::vector<std::uint32_t> stack;
    return stack;
  }

  std::atomic<bool> enabled_{false};
  mutable ute::Mutex mu_;
  std::vector<SpanRecord> spans_ UTE_GUARDED_BY(mu_);
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  explicit Span(std::string name)
      : id_(Tracer::instance().open(std::move(name))) {}
  ~Span() { Tracer::instance().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

}  // namespace perfbench
