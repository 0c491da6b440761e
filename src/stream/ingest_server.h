// The always-on ingest side of a streaming run: accepts one TCP session
// per expected node, feeds their records through the resumable
// StreamMerger on a single merge thread, and (optionally) publishes the
// growing result — merged .uti file, SLOG frames, live metrics — through
// a LiveFeed the query service can serve while the run is in flight
// (docs/STREAMING.md).
//
// Threads:
//   - the shared epoll Reactor (src/server/reactor.h) owns every
//     session's socket and state machine on one event-loop thread;
//   - a small worker pool (one slot per expected node plus slack) runs
//     the per-message protocol work, because admitting a kRecords batch
//     legitimately blocks on the session's ByteBudget; the reactor
//     dispatches one message per session at a time, so session state
//     needs no locking and acks stay in order;
//   - the single merge thread drains a bounded Channel<SessionEvent>,
//     drives the StreamMerger, and owns the output writers —
//     StreamMerger and SlogWriter stay single-threaded by construction.
//
// Backpressure: each session has its own ByteBudget. A kRecords batch is
// acked only after its bytes fit the session's budget and the event is
// queued; the budget is released as the merge consumes the session's
// buffered records. Budgets are per session, not global: one global
// budget deadlocks when a fast node fills it while the watermark waits
// on a slow node whose records would be the next to drain.
//
// Teardown: a session that disconnects without kBye is an abort — the
// merge synthesizes end pieces for the node's open states
// (StreamMerger::abortInput) so the merged output stays well-formed. The
// reactor fires onClosed only after the session's last in-flight message
// finished, so the abort event can never overtake records already being
// admitted. A node that aborted cannot reconnect: its closures are
// already in the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "interval/profile.h"
#include "server/reactor.h"
#include "slog/slog_writer.h"
#include "stream/ingest_protocol.h"
#include "stream/live_feed.h"
#include "stream/stream_merger.h"
#include "support/channel.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"
#include "support/types.h"

namespace ute {

struct IngestServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Nodes the run expects, in input-index order; a hello naming any
  /// other node gets kUnknownNode.
  std::vector<NodeId> expectedNodes;
  std::string outPath;   ///< merged .uti output (required)
  std::string slogPath;  ///< SLOG output; empty = no SLOG, no live frames
  StreamMergeOptions merge;
  SlogOptions slog;
  /// Per-session cap on bytes buffered inside the merge (acquired at
  /// kRecords ack time, released as the merge drains the session's
  /// records). 0 = unlimited — required for simulator feeds whose online
  /// clock fit may only freeze at end of stream. A batch larger than the
  /// whole budget is admitted alone once the budget is empty.
  std::size_t sessionBudgetBytes = 8 << 20;
  /// Liveness bound per session: a session idle (no message) or stuck
  /// mid-frame this long is treated as a disconnect (abort). Sessions
  /// whose message is being serviced — e.g. blocked on the byte budget —
  /// are exempt. 0 = wait forever.
  int sessionTimeoutMs = 30'000;
  std::size_t channelCapacity = 64;
};

/// Blocking byte counter a session acquires against before queueing
/// records and the merge thread releases as they drain.
class ByteBudget {
 public:
  explicit ByteBudget(std::size_t limit) : limit_(limit) {}

  /// Blocks until `n` fits (or the budget is empty — an oversize batch
  /// is admitted alone). Returns false once close()d.
  bool acquire(std::size_t n) UTE_EXCLUDES(mu_);
  void release(std::size_t n) UTE_EXCLUDES(mu_);
  /// Unblocks every waiter; further acquires fail.
  void close() UTE_EXCLUDES(mu_);

 private:
  const std::size_t limit_;  ///< 0 = unlimited
  Mutex mu_;
  CondVar cv_;
  std::size_t used_ UTE_GUARDED_BY(mu_) = 0;
  bool closed_ UTE_GUARDED_BY(mu_) = false;
};

class IngestServer : private Reactor::Handler {
 public:
  /// Binds, spawns the merge thread and the reactor. `feed` (optional,
  /// not owned, must outlive the server) receives sealed frames, the
  /// watermark, and live metrics.
  IngestServer(const Profile& profile, IngestServerOptions options,
               LiveFeed* feed = nullptr);
  ~IngestServer() override;

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  std::uint16_t port() const { return reactor_->port(); }
  Reactor::Stats reactorStats() const { return reactor_->stats(); }

  /// Blocks until the merge finished (every expected node closed or the
  /// server was stopped). Rethrows a merge-side failure as FormatError.
  StreamMergeResult wait() UTE_EXCLUDES(mu_);

  /// Stops accepting, wakes every blocked session, drains the merge, and
  /// joins all threads. Sessions still open are treated as aborts.
  /// Idempotent from one thread; the destructor calls it.
  void stop();

 private:
  /// One decoded client message, forwarded worker -> merge thread.
  struct SessionEvent {
    enum class Kind : std::uint8_t {
      kThreads,
      kMarker,
      kClockPairs,
      kRecords,
      kClose,  ///< graceful kBye
      kAbort,  ///< disconnect / timeout / protocol violation
    };
    Kind kind = Kind::kAbort;
    std::size_t input = 0;
    std::vector<ThreadEntry> threads;
    std::uint32_t markerId = 0;
    std::string markerName;
    IngestClockPairs clockPairs;
    std::vector<std::vector<std::uint8_t>> records;
    std::size_t bytes = 0;  ///< budget charge carried by kRecords
  };

  /// Ingest-protocol progress of one connection. The map is reactor-
  /// thread confined; each Session object is shared with at most one
  /// worker at a time (the reactor serializes per-connection dispatch).
  struct Session {
    std::optional<std::size_t> input;
    bool sawThreads = false;
    bool sawBye = false;
  };

  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> onConnError(Reactor::ConnId conn,
                                        Reactor::ConnError kind,
                                        const std::string& detail) override;
  void onClosed(Reactor::ConnId conn) override;

  /// Protocol work for one message; runs on the session pool because
  /// kRecords admission blocks on the ByteBudget.
  void serviceMessage(Reactor::Request req, Session& session,
                      const std::vector<std::uint8_t>& msg);

  void mergeLoop();
  /// Creates the output writers once every thread table arrived (merge
  /// thread only).
  void openOutputs();
  /// Returns drained budget charge to the sessions (merge thread only).
  void releaseBudgets(std::vector<std::size_t>& charge);
  std::size_t claimNode(NodeId node) UTE_EXCLUDES(mu_);
  void markDone(StreamMergeResult result, std::string error)
      UTE_EXCLUDES(mu_);

  const Profile& profile_;
  IngestServerOptions options_;
  LiveFeed* feed_ = nullptr;  ///< not owned; may be null
  Channel<SessionEvent> channel_;
  /// One budget per expected node; the objects are immortal for the
  /// server's lifetime, so workers index without a lock.
  std::vector<std::unique_ptr<ByteBudget>> budgets_;

  // Merge-thread-confined state (created in the constructor before the
  // thread starts; the destructor touches it only after the join).
  std::unique_ptr<StreamMerger> merger_;
  std::unique_ptr<SlogWriter> slog_;

  mutable Mutex mu_;
  CondVar doneCv_;
  std::vector<bool> claimed_ UTE_GUARDED_BY(mu_);
  bool stopped_ UTE_GUARDED_BY(mu_) = false;
  bool done_ UTE_GUARDED_BY(mu_) = false;
  std::string error_ UTE_GUARDED_BY(mu_);
  StreamMergeResult result_ UTE_GUARDED_BY(mu_);

  std::thread mergeThread_;

  /// Reactor-thread confined (see Session).
  std::unordered_map<Reactor::ConnId, std::shared_ptr<Session>> sessions_;

  /// Declaration order = teardown contract: pool_ (last) is destroyed
  /// first and joins its workers while reactor_ is still alive to absorb
  /// their complete() calls.
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ute
