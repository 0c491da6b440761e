// utecheck fixture: the blocking-rule-clean twin of blocking_bad.cpp.
// The wait moves into a lambda handed to the pool's non-blocking
// trySubmit (deferred — runs off the reactor thread), and one deliberate
// residual blocking call carries a justified suppression.
struct Mutex {};
struct CondVar {
  void wait(Mutex& mu);
};
template <typename F>
struct ThreadPool {
  void submit(F&& fn);
  bool trySubmit(F&& fn);
};
struct MiniServer {
  Mutex mu_;
  CondVar cv_;
  ThreadPool<void (*)()> pool_;
  bool ready_ = false;

  void parseFrames() {  // reactor entry point by name
    pool_.trySubmit([this] {
      // Runs on a worker thread: invisible to the blocking rule.
      while (!ready_) cv_.wait(mu_);
    });
    shutdownHook();
  }

  void shutdownHook() {
    // utecheck: allow(blocking) — fixture: bounded one-shot wait during shutdown
    cv_.wait(mu_);
  }
};
