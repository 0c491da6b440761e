// Clang thread-safety annotations and the annotated lock primitives every
// concurrent UTE class is built on.
//
// The locking invariants of the pipeline (which field is protected by
// which mutex, which helper must be called with a shard lock held) used
// to live in comments, checkable only by TSan stress runs that depend on
// scheduling luck. These macros turn those comments into declarations
// Clang's -Wthread-safety analysis proves at compile time; under
// -Werror=thread-safety (the default for thread-safety-capable compilers,
// see UTE_THREAD_SAFETY in the top-level CMakeLists) a lock-discipline
// violation is a build break, not a flaky test.
//
// Conventions (enforced by utecheck, tools/analyze/):
//   - every mutex in src/ is a ute::Mutex, never a raw std::mutex — raw
//     mutexes are invisible to the analysis;
//   - data a mutex protects is declared UTE_GUARDED_BY(mu) right next to
//     the mutex;
//   - a private helper that expects its caller to hold a lock says so
//     with UTE_REQUIRES(mu) instead of a "called with mu held" comment;
//   - condition waits go through ute::CondVar::wait(mu) inside an
//     explicit `while (!predicate)` loop — predicate lambdas are analyzed
//     as separate functions and would defeat GUARDED_BY checking.
//
// On compilers without the capability attributes (GCC) every macro
// expands to nothing and Mutex/MutexLock/CondVar behave exactly like
// std::mutex / std::lock_guard / std::condition_variable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define UTE_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef UTE_THREAD_ANNOTATION
#define UTE_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define UTE_CAPABILITY(x) UTE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define UTE_SCOPED_CAPABILITY UTE_THREAD_ANNOTATION(scoped_lockable)

/// Field `x` may only be touched while holding the named mutex(es).
#define UTE_GUARDED_BY(x) UTE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* is protected (the pointer itself is not).
#define UTE_PT_GUARDED_BY(x) UTE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function precondition: caller holds the mutex(es) for the whole call.
#define UTE_REQUIRES(...) \
  UTE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the mutex(es) and returns with them held.
#define UTE_ACQUIRE(...) \
  UTE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es) the caller held on entry.
#define UTE_RELEASE(...) \
  UTE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called with the mutex(es) held (deadlock guard).
#define UTE_EXCLUDES(...) UTE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a lock-ordering edge between two mutexes.
#define UTE_ACQUIRED_BEFORE(...) \
  UTE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define UTE_ACQUIRED_AFTER(...) \
  UTE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// The function returns a reference to the named capability.
#define UTE_RETURN_CAPABILITY(x) UTE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot see the invariant; utecheck's ts-escape rule
/// rejects any use without one.
#define UTE_NO_THREAD_SAFETY_ANALYSIS \
  UTE_THREAD_ANNOTATION(no_thread_safety_analysis)

/// The function may erase/clear elements of the named member
/// container(s), invalidating pointers, references, and iterators other
/// code obtained from them. Consumed lexically by `utecheck`'s
/// re-entrant-invalidation rule (docs/STATIC_ANALYSIS.md); expands to
/// nothing for every compiler. Prefer annotating the choke point every
/// mutation funnels through (e.g. Reactor::finalizeConn) — callers
/// inherit the effect through the call graph.
#define UTE_MAY_INVALIDATE(...)

namespace ute {

class CondVar;

/// std::mutex made visible to the analysis. lock()/unlock() are annotated
/// so Clang tracks the capability through both manual and RAII use; the
/// capability-free escape hatches of std::mutex (try_lock) are
/// deliberately not exposed — no UTE code needs them.
class UTE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() UTE_ACQUIRE() { mu_.lock(); }
  void unlock() UTE_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a ute::Mutex — the annotated counterpart of
/// std::lock_guard. Scoped: the analysis knows the capability is held
/// from construction to end of scope.
class UTE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) UTE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() UTE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with ute::Mutex. wait() requires the lock
/// held (it is released during the block and reacquired before return,
/// which the analysis models as "held throughout" — the standard
/// condition-variable contract). There is intentionally no predicate
/// overload: a predicate lambda is analyzed as a separate function that
/// does not hold the mutex, so guarded reads inside it would warn; the
/// explicit loop
///     while (!condition) cv.wait(mu);
/// keeps the guarded reads in the annotated caller.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires.
  void wait(Mutex& mu) UTE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the unique_lock's ownership claim without unlocking — the
    // caller's MutexLock still owns the capability.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Bounded wait (same adopt/release protocol as wait()); returns after
  /// `timeout` even without a notify — for deadline-polling loops.
  template <typename Rep, typename Period>
  void waitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      UTE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait_for(native, timeout);
    native.release();
  }

  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ute
