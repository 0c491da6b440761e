// The always-on ingest side of a streaming run: accepts one TCP session
// per expected node, feeds their records through the resumable
// StreamMerger on a single merge thread, and (optionally) publishes the
// growing result — merged .uti file, SLOG frames, live metrics — through
// a LiveFeed the query service can serve while the run is in flight
// (docs/STREAMING.md).
//
// Threads:
//   - the shared epoll Reactor (src/server/reactor.h) owns every
//     session's socket and protocol order (hello, then threads, then the
//     rest, then bye) on one event-loop thread. It answers the hello
//     itself and moves every later message, undecoded, into a Channel;
//   - the single merge thread drains that Channel<SessionEvent>: it
//     decodes each message, drives the StreamMerger, owns the output
//     writers, and answers the message through Reactor::complete() —
//     StreamMerger and SlogWriter stay single-threaded by construction.
//   The reactor dispatches one message per session at a time, so acks
//   stay in order.
//
// Backpressure is the withheld ack. Each session has its own byte
// budget: the merge thread acks a kRecords batch only while the
// session's records buffered in the merge fit it, and otherwise holds
// the ack and re-tests it after every merge advance. The client cannot
// send its next message meanwhile. Budgets are per session, not global:
// one global budget deadlocks when a fast node fills it while the
// watermark waits on a slow node whose records would be the next to
// drain.
//
// Teardown: a session that disconnects without kBye is an abort — the
// merge synthesizes end pieces for the node's open states
// (StreamMerger::abortInput) so the merged output stays well-formed. The
// reactor fires onClosed only after the session's last message was
// answered, so the abort can never overtake records of that session. A
// node that aborted cannot reconnect: its closures are already in the
// stream. On stop() or a merge failure, every request the merge thread
// holds or finds queued is answered kShuttingDown.
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
  /// Per-session cap on bytes buffered inside the merge: a kRecords ack
  /// is withheld while the session's buffered records exceed it. 0 =
  /// unlimited — required for simulator feeds whose online clock fit may
  /// only freeze at end of stream. A batch larger than the whole budget
  /// is acked once it is all the session has buffered.
  std::size_t sessionBudgetBytes = 8 << 20;
  /// Liveness bound per session: a session idle (no message) or stuck
  /// mid-frame this long is treated as a disconnect (abort). Sessions
  /// whose message is being serviced — e.g. an ack withheld by the byte
  /// budget — are exempt. 0 = wait forever.
  int sessionTimeoutMs = 30'000;
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

  /// Ends the merge (sessions still open become aborts), answers every
  /// request it held with kShuttingDown, and joins both threads.
  /// Idempotent from one thread; the destructor calls it.
  void stop();

 private:
  /// One client message, or one session's abort, handed from the reactor
  /// thread to the merge thread.
  struct SessionEvent {
    std::size_t input = 0;
    bool abort = false;  ///< disconnect without kBye; no request, no payload
    /// Cleared once answered, so no later path answers it again.
    Reactor::Request req;
    std::vector<std::uint8_t> payload;  ///< undecoded; op order checked
  };

  /// Ingest-protocol progress of one connection (reactor thread only).
  struct Session {
    std::optional<std::size_t> input;
    bool sawThreads = false;
    bool sawBye = false;
  };

  /// A kRecords ack the merge thread holds until the batch fits.
  struct WithheldAck {
    Reactor::Request req;
    std::size_t bytes = 0;  ///< the batch's record bytes
  };

  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> onConnError(Reactor::ConnId conn,
                                        Reactor::ConnError kind,
                                        const std::string& detail) override;
  void onClosed(Reactor::ConnId conn) override;

  void mergeLoop();
  /// Decodes and applies one message, then answers it — or withholds a
  /// kRecords ack that does not fit (merge thread only).
  void serviceMessage(SessionEvent& ev);
  /// Whether input `i` may be acked a batch of `batchBytes` now.
  bool fitsBudget(std::size_t i, std::size_t batchBytes) const;
  /// Answers the withheld acks that fit after a merge advance.
  void releaseWithheldAcks();
  /// Creates the output writers once every thread table arrived (merge
  /// thread only).
  void openOutputs();
  std::size_t claimNode(NodeId node) UTE_EXCLUDES(mu_);
  void markDone(StreamMergeResult result, std::string error)
      UTE_EXCLUDES(mu_);

  const Profile& profile_;
  IngestServerOptions options_;
  LiveFeed* feed_ = nullptr;  ///< not owned; may be null
  /// Holds at most one event per claimed session: its one message in
  /// flight or, once that was answered, its abort. Sized to the expected
  /// nodes, trySend() never finds it full.
  Channel<SessionEvent> channel_;

  // Merge-thread-confined state (created in the constructor before the
  // thread starts; the destructor touches it only after the join).
  std::unique_ptr<StreamMerger> merger_;
  std::unique_ptr<SlogWriter> slog_;
  std::vector<std::optional<WithheldAck>> withheld_;  ///< per input
  std::size_t open_ = 0;    ///< inputs not yet closed or aborted
  std::size_t tables_ = 0;  ///< thread tables received

  mutable Mutex mu_;
  CondVar doneCv_;
  std::vector<bool> claimed_ UTE_GUARDED_BY(mu_);
  bool stopped_ UTE_GUARDED_BY(mu_) = false;
  bool done_ UTE_GUARDED_BY(mu_) = false;
  std::string error_ UTE_GUARDED_BY(mu_);
  StreamMergeResult result_ UTE_GUARDED_BY(mu_);

  std::thread mergeThread_;

  /// Reactor-thread confined.
  std::unordered_map<Reactor::ConnId, Session> sessions_;

  /// Declared last = destroyed first, after stop() joined the merge
  /// thread, the only other thread that completes its requests.
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace ute
