#include "stream/ingest_server.h"

#include <exception>
#include <tuple>
#include <utility>

#include "support/errors.h"

namespace ute {

// --- ByteBudget -------------------------------------------------------------

bool ByteBudget::acquire(std::size_t n) {
  if (limit_ == 0) {  // unlimited
    MutexLock lock(mu_);
    return !closed_;
  }
  MutexLock lock(mu_);
  // An oversize batch (n > limit_) is admitted alone once the budget is
  // empty — blocking it forever would wedge the producer.
  while (!closed_ && used_ > 0 && used_ + n > limit_) cv_.wait(mu_);
  if (closed_) return false;
  used_ += n;
  return true;
}

void ByteBudget::release(std::size_t n) {
  if (limit_ == 0) return;
  MutexLock lock(mu_);
  used_ -= n > used_ ? used_ : n;
  cv_.notifyAll();
}

void ByteBudget::close() {
  MutexLock lock(mu_);
  closed_ = true;
  cv_.notifyAll();
}

// --- IngestServer -----------------------------------------------------------

IngestServer::IngestServer(const Profile& profile, IngestServerOptions options,
                           LiveFeed* feed)
    : profile_(profile),
      options_(std::move(options)),
      feed_(feed),
      channel_(options_.channelCapacity == 0 ? 64 : options_.channelCapacity) {
  if (options_.expectedNodes.empty()) {
    throw UsageError("ingest server needs at least one expected node");
  }
  if (options_.outPath.empty()) {
    throw UsageError("ingest server needs an output path");
  }
  merger_ = std::make_unique<StreamMerger>(profile_, options_.merge);
  for (std::size_t i = 0; i < options_.expectedNodes.size(); ++i) {
    merger_->addInput();
    budgets_.push_back(
        std::make_unique<ByteBudget>(options_.sessionBudgetBytes));
  }
  {
    MutexLock lock(mu_);
    claimed_.assign(options_.expectedNodes.size(), false);
  }
  mergeThread_ = std::thread(&IngestServer::mergeLoop, this);
  // One worker per expected node plus slack: every node can block on its
  // ByteBudget simultaneously without starving a stray connection's
  // (quick) error reply. Sized before the reactor exists — onRequest
  // needs the pool.
  const std::size_t inputs = options_.expectedNodes.size();
  pool_ = std::make_unique<ThreadPool>(inputs + 2, inputs * 4 + 64);
  ReactorOptions reactor;
  reactor.idleTimeoutMs = options_.sessionTimeoutMs;
  reactor.readTimeoutMs = options_.sessionTimeoutMs;
  // maxMessageBytes keeps its default: the ingest protocol shares the
  // 64 MiB framing cap with the query protocol (tcp.cpp recvMessage).
  Reactor::Handler& handler = *this;
  reactor_ = std::make_unique<Reactor>(options_.port, handler, reactor);
}

IngestServer::~IngestServer() { stop(); }

void IngestServer::stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) {
      // A second caller still waits for the reactor below (idempotent
      // shutdown joins, or returns at once when already joined).
    }
    stopped_ = true;
  }
  // Unblock workers stuck in budget acquire / channel send so their
  // completions reach the reactor, then drain + join the loop. Sessions
  // still open at that point surface as aborts via onClosed.
  channel_.close();
  for (auto& budget : budgets_) budget->close();
  reactor_->shutdown();
  if (mergeThread_.joinable()) mergeThread_.join();
}

StreamMergeResult IngestServer::wait() {
  MutexLock lock(mu_);
  while (!done_) doneCv_.wait(mu_);
  if (!error_.empty()) throw FormatError(error_);
  return result_;
}

void IngestServer::markDone(StreamMergeResult result, std::string error) {
  MutexLock lock(mu_);
  result_ = std::move(result);
  error_ = std::move(error);
  done_ = true;
  doneCv_.notifyAll();
}

// --- reactor handler --------------------------------------------------------

std::size_t IngestServer::claimNode(NodeId node) {
  MutexLock lock(mu_);
  if (stopped_ || done_) {
    throw IngestError(IngestStatus::kShuttingDown, "run is over");
  }
  for (std::size_t i = 0; i < options_.expectedNodes.size(); ++i) {
    if (options_.expectedNodes[i] != node) continue;
    if (claimed_[i]) {
      throw IngestError(IngestStatus::kBadRequest,
                        "node " + std::to_string(node) +
                            " already has (or had) a session");
    }
    claimed_[i] = true;
    return i;
  }
  throw IngestError(
      IngestStatus::kUnknownNode,
      "node " + std::to_string(node) + " is not part of this run");
}

void IngestServer::onRequest(Reactor::Request req,
                             std::vector<std::uint8_t> payload) {
  auto [it, inserted] = sessions_.try_emplace(req.conn, nullptr);
  if (inserted) it->second = std::make_shared<Session>();
  std::shared_ptr<Session> session = it->second;

  auto body = std::make_shared<std::vector<std::uint8_t>>(std::move(payload));
  const bool accepted = pool_->trySubmit([this, req, session, body] {
    serviceMessage(req, *session, *body);
  });
  if (!accepted) {
    // The pool is sized so this only happens under a connection flood;
    // shed the stray with a structured reply (never a hung session).
    req.reactor->complete(req,
                          encodeIngestReply(IngestStatus::kShuttingDown,
                                            "ingest server overloaded"),
                          /*closeAfter=*/true);
  }
}

void IngestServer::serviceMessage(Reactor::Request req, Session& session,
                                  const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> reply;
  bool fatal = false;
  try {
    try {
      const IngestOp op = peekIngestOp(msg);
      if (!session.input) {
        if (op != IngestOp::kHello) {
          throw IngestError(IngestStatus::kBadRequest,
                            "first message must be the ingest hello");
        }
        session.input = claimNode(decodeIngestHello(msg).node);
      } else {
        const std::size_t input = *session.input;
        switch (op) {
          case IngestOp::kHello:
            throw IngestError(IngestStatus::kBadRequest, "duplicate hello");
          case IngestOp::kThreads: {
            if (session.sawThreads) {
              throw IngestError(IngestStatus::kBadRequest,
                                "duplicate thread table");
            }
            SessionEvent ev;
            ev.kind = SessionEvent::Kind::kThreads;
            ev.input = input;
            ev.threads = decodeIngestThreads(msg);
            if (!channel_.send(std::move(ev))) {
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            session.sawThreads = true;
            break;
          }
          case IngestOp::kMarker: {
            SessionEvent ev;
            ev.kind = SessionEvent::Kind::kMarker;
            ev.input = input;
            std::tie(ev.markerId, ev.markerName) = decodeIngestMarker(msg);
            if (!channel_.send(std::move(ev))) {
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            break;
          }
          case IngestOp::kClockPairs: {
            SessionEvent ev;
            ev.kind = SessionEvent::Kind::kClockPairs;
            ev.input = input;
            ev.clockPairs = decodeIngestClockPairs(msg);
            if (!channel_.send(std::move(ev))) {
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            break;
          }
          case IngestOp::kRecords: {
            if (!session.sawThreads) {
              throw IngestError(IngestStatus::kBadRequest,
                                "records before the thread table");
            }
            SessionEvent ev;
            ev.kind = SessionEvent::Kind::kRecords;
            ev.input = input;
            ev.records = decodeIngestRecords(msg);
            for (const auto& body : ev.records) ev.bytes += body.size();
            // The ack below happens only after both gates pass, which is
            // what makes the reply an explicit backpressure signal.
            if (!budgets_[input]->acquire(ev.bytes)) {
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            const std::size_t bytes = ev.bytes;
            if (!channel_.send(std::move(ev))) {
              budgets_[input]->release(bytes);
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            break;
          }
          case IngestOp::kBye: {
            SessionEvent ev;
            ev.kind = SessionEvent::Kind::kClose;
            ev.input = input;
            if (!channel_.send(std::move(ev))) {
              throw IngestError(IngestStatus::kShuttingDown,
                                "ingest is shutting down");
            }
            session.sawBye = true;
            break;
          }
          default:
            throw IngestError(IngestStatus::kBadRequest, "unknown ingest op");
        }
      }
      reply = encodeIngestReply(IngestStatus::kOk);
    } catch (const IngestError& e) {
      // Structured error reply before close — the client sees why, not a
      // bare EOF. The session is over either way.
      reply = encodeIngestReply(e.status(), e.what());
      fatal = true;
    }
  } catch (const std::exception&) {
    // Torn frame (decode failure outside the ingest-status taxonomy):
    // drop the client silently; onClosed synthesizes the abort.
    req.reactor->complete(req, nullptr, /*closeAfter=*/true);
    return;
  }
  // A session ends after its kBye ack (or a fatal reply) — the reactor
  // drains the reply first, then closes, then onClosed fires.
  req.reactor->complete(req, std::move(reply),
                        /*closeAfter=*/fatal || session.sawBye);
}

std::vector<std::uint8_t> IngestServer::onConnError(
    Reactor::ConnId /*conn*/, Reactor::ConnError /*kind*/,
    const std::string& /*detail*/) {
  // Framing violations and liveness timeouts are disconnects in the
  // ingest protocol (same as the old per-session recv timeout): no
  // reply; onClosed turns the claim into an abort.
  return {};
}

void IngestServer::onClosed(Reactor::ConnId conn) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  const std::shared_ptr<Session> session = it->second;
  sessions_.erase(it);
  if (session->input && !session->sawBye) {
    // Disconnect without kBye = abort. onClosed is only fired after the
    // session's last in-flight message completed, so this can never
    // overtake records still being admitted. The send may briefly block
    // on a full channel; the merge thread drains it independently, and a
    // closed channel (merge already over) returns false immediately.
    SessionEvent ev;
    ev.kind = SessionEvent::Kind::kAbort;
    ev.input = *session->input;
    // The merge thread drains the channel independently, and send() on
    // a closed channel (merge already over) returns false immediately.
    // utecheck: allow(blocking) — bounded wait: merge thread drains independently
    channel_.send(std::move(ev));
  }
}

// --- the merge thread -------------------------------------------------------

void IngestServer::openOutputs() {
  StreamMerger::RecordSink sink;
  if (!options_.slogPath.empty()) {
    sink = [this](const RecordView& record) { slog_->addRecord(record); };
  }
  merger_->openOutput(options_.outPath, std::move(sink));
  if (feed_) feed_->setThreads(merger_->threads());
  if (options_.slogPath.empty()) return;
  slog_ = std::make_unique<SlogWriter>(options_.slogPath, options_.slog,
                                       profile_, merger_->threads(),
                                       merger_->markers());
  if (feed_) {
    feed_->setStates(slog_->states());
    slog_->setFrameSealHook(
        [this](const SlogFrameIndexEntry& entry, SlogFramePtr frame) {
          feed_->onFrameSealed(entry, std::move(frame));
          // Marker states can register mid-run; keep the snapshot fresh.
          feed_->setStates(slog_->states());
        });
  }
}

void IngestServer::releaseBudgets(std::vector<std::size_t>& charge) {
  for (std::size_t i = 0; i < charge.size(); ++i) {
    const std::size_t buffered = merger_->bufferedBytes(i);
    if (charge[i] > buffered) {
      budgets_[i]->release(charge[i] - buffered);
      charge[i] = buffered;
    }
  }
}

void IngestServer::mergeLoop() {
  const std::size_t inputs = options_.expectedNodes.size();
  std::vector<std::size_t> charge(inputs, 0);
  std::size_t open = inputs;
  std::size_t tables = 0;
  try {
    while (auto ev = channel_.receive()) {
      const std::size_t i = ev->input;
      switch (ev->kind) {
        case SessionEvent::Kind::kThreads:
          merger_->setThreads(i, ev->threads);
          ++tables;
          break;
        case SessionEvent::Kind::kMarker:
          merger_->addMarker(ev->markerId, ev->markerName);
          if (slog_) {
            slog_->registerState(kMarkerStateBase + ev->markerId,
                                 ev->markerName);
          }
          break;
        case SessionEvent::Kind::kClockPairs:
          merger_->setClockPairs(i, ev->clockPairs.pairs,
                                 ev->clockPairs.final);
          break;
        case SessionEvent::Kind::kRecords:
          for (const auto& body : ev->records) merger_->addRecord(i, body);
          charge[i] += ev->bytes;
          break;
        case SessionEvent::Kind::kClose:
          merger_->closeInput(i);
          --open;
          break;
        case SessionEvent::Kind::kAbort:
          merger_->abortInput(i);
          --open;
          break;
      }
      if (!merger_->opened() && tables == inputs) openOutputs();
      if (merger_->opened()) {
        merger_->advance();
        releaseBudgets(charge);
        if (feed_) feed_->setWatermark(merger_->watermark());
      }
      if (open == 0) break;
    }
    if (open > 0) {
      // The channel closed under us (stop()): whatever is still open is
      // an abort, so the output closes cleanly.
      for (std::size_t i = 0; i < inputs; ++i) {
        if (merger_->inputOpen(i)) merger_->abortInput(i);
      }
    }
    if (!merger_->opened()) {
      if (tables == inputs) {
        openOutputs();
      } else {
        throw FormatError(
            "ingest ended before every node sent its thread table");
      }
    }
    StreamMergeResult result = merger_->finish();
    if (slog_) slog_->close();
    if (feed_) {
      const auto [start, end] = feed_->timeRange();
      feed_->finish(start, end);
    }
    markDone(std::move(result), "");
  } catch (const std::exception& e) {
    markDone(StreamMergeResult{}, e.what());
  }
  // Late or blocked sessions must not hang on a finished merge.
  channel_.close();
  for (auto& budget : budgets_) budget->close();
}

}  // namespace ute
