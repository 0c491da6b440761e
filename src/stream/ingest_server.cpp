#include "stream/ingest_server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "support/errors.h"

namespace ute {

namespace {

Reactor::SharedReply reply(IngestStatus status, const std::string& message) {
  return std::make_shared<const std::vector<std::uint8_t>>(
      encodeIngestReply(status, message));
}

/// The ack: one shared buffer for every session.
const Reactor::SharedReply& okReply() {
  static const Reactor::SharedReply ok = reply(IngestStatus::kOk, "");
  return ok;
}

/// Completes `req` and clears it, so no later path answers it again. A
/// null reply closes the connection without a word.
void answer(Reactor::Request& req, Reactor::SharedReply payload,
            bool closeAfter) {
  const Reactor::Request done = std::exchange(req, {});
  done.reactor->complete(done, std::move(payload), closeAfter);
}

/// Answers `req`, unless it was answered already (or is an abort's).
void answerShuttingDown(Reactor::Request& req) {
  if (req.reactor == nullptr) return;
  answer(req, reply(IngestStatus::kShuttingDown, "ingest is shutting down"),
         /*closeAfter=*/true);
}

}  // namespace

IngestServer::IngestServer(const Profile& profile, IngestServerOptions options,
                           LiveFeed* feed)
    : profile_(profile),
      options_(std::move(options)),
      feed_(feed),
      channel_(options_.expectedNodes.size()) {
  if (options_.expectedNodes.empty()) {
    throw UsageError("ingest server needs at least one expected node");
  }
  if (options_.outPath.empty()) {
    throw UsageError("ingest server needs an output path");
  }
  const std::size_t inputs = options_.expectedNodes.size();
  merger_ = std::make_unique<StreamMerger>(profile_, options_.merge);
  for (std::size_t i = 0; i < inputs; ++i) merger_->addInput();
  withheld_.resize(inputs);
  open_ = inputs;
  {
    MutexLock lock(mu_);
    claimed_.assign(inputs, false);
  }
  mergeThread_ = std::thread(&IngestServer::mergeLoop, this);
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
    stopped_ = true;
  }
  // The merge thread ends on the closed channel and answers every request
  // it holds or finds queued before it exits; later messages find the
  // channel closed and are answered on the reactor thread. So the drain
  // below waits for no request. Sessions still open become aborts.
  channel_.close();
  if (mergeThread_.joinable()) mergeThread_.join();
  reactor_->shutdown();
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
  Session& session = sessions_[req.conn];
  try {
    try {
      const IngestOp op = peekIngestOp(payload);
      if (!session.input) {
        if (op != IngestOp::kHello) {
          throw IngestError(IngestStatus::kBadRequest,
                            "first message must be the ingest hello");
        }
        session.input = claimNode(decodeIngestHello(payload).node);
        req.reactor->complete(req, okReply());
        return;
      }
      switch (op) {
        case IngestOp::kHello:
          throw IngestError(IngestStatus::kBadRequest, "duplicate hello");
        case IngestOp::kThreads:
          if (session.sawThreads) {
            throw IngestError(IngestStatus::kBadRequest,
                              "duplicate thread table");
          }
          break;
        case IngestOp::kRecords:
          if (!session.sawThreads) {
            throw IngestError(IngestStatus::kBadRequest,
                              "records before the thread table");
          }
          break;
        case IngestOp::kMarker:
        case IngestOp::kClockPairs:
        case IngestOp::kBye:
          break;
        default:
          throw IngestError(IngestStatus::kBadRequest, "unknown ingest op");
      }
      // The merge thread decodes, applies and answers the message.
      if (!channel_.trySend({.input = *session.input,
                             .req = req,
                             .payload = std::move(payload)})) {
        throw IngestError(IngestStatus::kShuttingDown,
                          "ingest is shutting down");
      }
      if (op == IngestOp::kThreads) session.sawThreads = true;
      if (op == IngestOp::kBye) session.sawBye = true;
    } catch (const IngestError& e) {
      // Structured error reply before close — the client sees why, not a
      // bare EOF. The session is over either way.
      req.reactor->complete(req, reply(e.status(), e.what()),
                            /*closeAfter=*/true);
    }
  } catch (const std::exception&) {
    // Torn frame (decode failure outside the ingest-status taxonomy):
    // drop the client silently; onClosed synthesizes the abort.
    req.reactor->complete(req, nullptr, /*closeAfter=*/true);
  }
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
  const Session session = it->second;
  sessions_.erase(it);
  if (session.input && !session.sawBye) {
    // Disconnect without kBye = abort. onClosed fires only after the
    // session's last message was answered, so the abort follows all of
    // its records and finds room in the channel. A closed channel (merge
    // already over) refuses it, and the merge needs it no more.
    SessionEvent abort;
    abort.input = *session.input;
    abort.abort = true;
    channel_.trySend(std::move(abort));
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

bool IngestServer::fitsBudget(std::size_t i, std::size_t batchBytes) const {
  // The batch's own records are buffered already, so a batch larger than
  // the budget fits once nothing else of the session is buffered.
  const std::size_t limit = options_.sessionBudgetBytes;
  return limit == 0 ||
         merger_->bufferedBytes(i) <= std::max(limit, batchBytes);
}

void IngestServer::releaseWithheldAcks() {
  for (std::size_t i = 0; i < withheld_.size(); ++i) {
    std::optional<WithheldAck>& ack = withheld_[i];
    if (!ack || !fitsBudget(i, ack->bytes)) continue;
    answer(ack->req, okReply(), /*closeAfter=*/false);
    ack.reset();
  }
}

void IngestServer::serviceMessage(SessionEvent& ev) {
  const std::size_t i = ev.input;
  const std::span<const std::uint8_t> msg = ev.payload;
  // A payload that does not decode ends its session, not the merge: an
  // IngestError gets its structured reply, anything else a silent close,
  // and onClosed turns either into an abort.
  const auto decoded =
      [&](auto decode) -> std::optional<decltype(decode(msg))> {
    try {
      return decode(msg);
    } catch (const IngestError& e) {
      answer(ev.req, reply(e.status(), e.what()), /*closeAfter=*/true);
    } catch (const std::exception&) {
      answer(ev.req, nullptr, /*closeAfter=*/true);
    }
    return std::nullopt;
  };
  bool closeAfter = false;
  switch (peekIngestOp(msg)) {
    case IngestOp::kThreads: {
      const auto threads = decoded(decodeIngestThreads);
      if (!threads) return;
      merger_->setThreads(i, *threads);
      ++tables_;
      break;
    }
    case IngestOp::kMarker: {
      const auto marker = decoded(decodeIngestMarker);
      if (!marker) return;
      const auto& [id, name] = *marker;
      merger_->addMarker(id, name);
      if (slog_) slog_->registerState(kMarkerStateBase + id, name);
      break;
    }
    case IngestOp::kClockPairs: {
      const auto clock = decoded(decodeIngestClockPairs);
      if (!clock) return;
      merger_->setClockPairs(i, clock->pairs, clock->final);
      break;
    }
    case IngestOp::kRecords: {
      // Spans into the payload: each body is copied once, into the merge.
      const auto bodies = decoded(decodeIngestRecords);
      if (!bodies) return;
      std::size_t bytes = 0;
      for (const std::span<const std::uint8_t> body : *bodies) {
        merger_->addRecord(i, body);
        bytes += body.size();
      }
      if (!fitsBudget(i, bytes)) {
        withheld_[i] = WithheldAck{std::exchange(ev.req, {}), bytes};
        return;
      }
      break;
    }
    case IngestOp::kBye:
      merger_->closeInput(i);
      --open_;
      // The session ends after its kBye ack: the reactor drains the
      // reply, closes, then fires onClosed.
      closeAfter = true;
      break;
    default:  // the reactor forwards only the ops above
      break;
  }
  answer(ev.req, okReply(), closeAfter);
}

void IngestServer::mergeLoop() {
  const std::size_t inputs = options_.expectedNodes.size();
  std::optional<SessionEvent> ev;
  try {
    while (open_ > 0) {
      ev = channel_.receive();
      // A channel closed under the loop means stop(): the merge ends, and
      // the event is answered below with whatever else is left.
      if (!ev || channel_.closed()) break;
      if (ev->abort) {
        merger_->abortInput(ev->input);
        --open_;
      } else {
        serviceMessage(*ev);
      }
      if (!merger_->opened() && tables_ == inputs) openOutputs();
      if (merger_->opened()) {
        merger_->advance();
        releaseWithheldAcks();
        if (feed_) feed_->setWatermark(merger_->watermark());
      }
      ev.reset();
    }
    // Whatever is still open (stop()) is an abort, so the output closes
    // cleanly.
    for (std::size_t i = 0; i < inputs; ++i) {
      if (merger_->inputOpen(i)) merger_->abortInput(i);
    }
    if (!merger_->opened()) {
      if (tables_ == inputs) {
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
  // Late sessions must not hang on a finished merge: the event in hand,
  // the withheld acks and everything still queued get kShuttingDown,
  // each exactly once. Messages after the close are refused by trySend.
  channel_.close();
  if (ev) answerShuttingDown(ev->req);
  for (std::optional<WithheldAck>& ack : withheld_) {
    if (ack) answerShuttingDown(ack->req);
  }
  while ((ev = channel_.receive())) answerShuttingDown(ev->req);
}

}  // namespace ute
