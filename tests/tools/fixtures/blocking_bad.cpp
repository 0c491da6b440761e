// utecheck fixture: a CondVar::wait reachable from parseFrames through a
// helper, and a blocking ThreadPool::submit called straight from a
// reactor entry. The blocking rule must flag both call sites; the pool's
// trySubmit beside it is the non-blocking mode and stays clean.
//
// Self-contained stand-ins for the ute primitives: utecheck types
// receivers from the classes declared in the analyzed files, so the
// fixture carries its own CondVar/Mutex/ThreadPool shells.
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
    drainBacklog();
  }

  void drainBacklog() {
    while (!ready_) {
      cv_.wait(mu_);  // blocking on the reactor thread: must be flagged
    }
  }

  void handleRead() {  // reactor entry point by name
    if (!pool_.trySubmit([] {})) {
      pool_.submit([] {});  // blocks while the queue is full: flagged
    }
  }
};
