// Reactor concurrency sweep: closed-loop request/response round trips
// over 100 -> 10,000 concurrent connections against one Reactor with an
// inline echo-style handler, written to BENCH_server.json (p50/p99
// latency + throughput per point). The client side is its own epoll
// harness in this file — bench/ is deliberately outside the utecheck
// reactor-containment rule, which confines epoll/eventfd in src/ and
// tools/ to src/server/reactor.*. perfbench reports syscalls per request
// at its own few connections (`server.syscalls_per_req`); the sweep over
// the connection count is only here.
//
// The client harness shares the host with the reactor, so absolute
// requests/s depends on the host (its CPU count is in the JSON's env
// block). The portable signal is structural: one reactor thread where
// thread-per-connection would need N, ~constant syscalls per request as
// N grows (buffered reads parse many pipelined frames per recv), zero
// cross-thread handoffs for inline completions, and one shared reply
// buffer feeding every connection's outbox.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/reactor.h"
#include "support/bytes.h"

namespace {

using namespace ute;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRequestBytes = 16;
constexpr std::size_t kReplyBytes = 256;
constexpr int kTargetRequests = 40'000;  ///< per sweep point, over all conns

/// Inline service: every request is answered on the reactor thread with
/// the same immutable shared buffer — the no-copy fan-out path.
class SharedReplyHandler : public Reactor::Handler {
 public:
  SharedReplyHandler()
      : reply_(std::make_shared<const std::vector<std::uint8_t>>(
            kReplyBytes, std::uint8_t{0x42})) {}

  void onRequest(Reactor::Request req, std::vector<std::uint8_t>) override {
    req.reactor->complete(req, reply_);
  }


 private:
  Reactor::SharedReply reply_;
};

/// One closed-loop client connection: write the fixed request, read the
/// fixed-size reply, repeat. At most one request outstanding.
struct ClientConn {
  int fd = -1;
  std::uint32_t mask = 0;       ///< currently registered epoll events
  std::size_t sent = 0;         ///< request bytes written this round
  std::size_t received = 0;     ///< reply bytes read this round
  int roundsLeft = 0;
  bool priming = false;         ///< first (untimed) round
  Clock::time_point sentAt{};
};

struct SweepPoint {
  int connections = 0;
  int totalRequests = 0;
  double seconds = 0;
  double requestsPerSec = 0;
  double p50Us = 0;
  double p99Us = 0;
  Reactor::Stats stats;
};

/// Raises RLIMIT_NOFILE toward its hard cap; returns the resulting soft
/// limit (client + server fds live in this one process).
std::size_t raiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  lim.rlim_cur = lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
  ::getrlimit(RLIMIT_NOFILE, &lim);
  return static_cast<std::size_t>(lim.rlim_cur);
}

class ClientHarness {
 public:
  explicit ClientHarness(std::uint16_t port) : port_(port) {
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    ByteWriter request;
    request.u32(kRequestBytes);
    request.bytes(std::vector<std::uint8_t>(kRequestBytes, 0x51));
    request_.assign(request.view().begin(), request.view().end());
  }

  ~ClientHarness() {
    for (ClientConn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epollFd_ >= 0) ::close(epollFd_);
  }

  bool connectAll(int count) {
    conns_.resize(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      ClientConn& c = conns_[static_cast<std::size_t>(i)];
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof addr) != 0) {
        return false;
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const int flags = ::fcntl(c.fd, F_GETFL, 0);
      ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
      epoll_event ev{};
      ev.events = 0;
      ev.data.u64 = static_cast<std::uint64_t>(i);
      if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) return false;
    }
    return true;
  }

  /// Runs `rounds` timed round trips per connection (plus one untimed
  /// priming round) and fills `latenciesUs`.
  bool run(int rounds, std::vector<double>& latenciesUs) {
    remaining_ = 0;
    latencies_ = &latenciesUs;
    for (ClientConn& c : conns_) {
      c.roundsLeft = rounds;
      c.priming = true;
      remaining_ += rounds + 1;
      startRequest(c);
    }
    epoll_event events[512];
    while (remaining_ > 0) {
      const int n = ::epoll_wait(epollFd_, events, 512, 10'000);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // stalled for 10s: something is wrong
      for (int i = 0; i < n; ++i) {
        ClientConn& c = conns_[events[i].data.u64];
        if ((events[i].events & EPOLLOUT) != 0 && !writeSome(c)) return false;
        if ((events[i].events & EPOLLIN) != 0 && !readSome(c)) return false;
      }
    }
    return true;
  }

 private:
  void setMask(ClientConn& c, std::uint32_t mask) {
    if (c.mask == mask) return;
    c.mask = mask;
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void startRequest(ClientConn& c) {
    c.sent = 0;
    c.received = 0;
    c.sentAt = Clock::now();
    writeSome(c);
  }

  bool writeSome(ClientConn& c) {
    while (c.sent < request_.size()) {
      const ssize_t n = ::send(c.fd, request_.data() + c.sent,
                               request_.size() - c.sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          setMask(c, EPOLLOUT);
          return true;
        }
        return false;
      }
      c.sent += static_cast<std::size_t>(n);
    }
    setMask(c, EPOLLIN);
    return true;
  }

  bool readSome(ClientConn& c) {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        return false;
      }
      if (n == 0) return false;  // server closed mid-bench
      c.received += static_cast<std::size_t>(n);
      if (c.received < 4 + kReplyBytes) continue;
      // Closed loop: exactly one reply can be in flight.
      if (!c.priming) {
        latencies_->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - c.sentAt)
                .count());
      }
      c.priming = false;
      --remaining_;
      if (c.roundsLeft > 0) {
        --c.roundsLeft;
        startRequest(c);
      } else {
        setMask(c, 0);  // done; stay connected so concurrency holds
      }
      return true;
    }
  }

  std::uint16_t port_;
  int epollFd_ = -1;
  std::vector<std::uint8_t> request_;
  std::vector<ClientConn> conns_;
  std::vector<double>* latencies_ = nullptr;
  long remaining_ = 0;
};

bool measure(int connections, SweepPoint& point) {
  SharedReplyHandler handler;
  ReactorOptions options;
  options.maxConnections = static_cast<std::size_t>(connections) + 8;
  Reactor reactor(0, handler, options);

  ClientHarness harness(reactor.port());
  if (!harness.connectAll(connections)) {
    std::fprintf(stderr, "connect storm failed at %d connections\n",
                 connections);
    return false;
  }
  const int rounds = std::max(4, kTargetRequests / connections);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(connections) *
             static_cast<std::size_t>(rounds));
  const auto t0 = Clock::now();
  if (!harness.run(rounds, us)) {
    std::fprintf(stderr, "bench loop failed at %d connections\n", connections);
    return false;
  }
  point.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::sort(us.begin(), us.end());
  point.connections = connections;
  point.totalRequests = static_cast<int>(us.size());
  point.requestsPerSec = static_cast<double>(us.size()) / point.seconds;
  point.p50Us = us[us.size() / 2];
  point.p99Us = us[static_cast<std::size_t>(
      static_cast<double>(us.size() - 1) * 0.99)];
  point.stats = reactor.stats();
  reactor.shutdown();
  return true;
}

double syscallsPerRequest(const Reactor::Stats& s) {
  if (s.requests == 0) return 0;
  return static_cast<double>(s.recvCalls + s.sendCalls + s.epollWaits) /
         static_cast<double>(s.requests);
}

void writeJson(const std::vector<SweepPoint>& points) {
  std::vector<benchutil::JsonObject> rows;
  for (const SweepPoint& p : points) {
    benchutil::JsonObject& row = rows.emplace_back();
    row.add("connections", p.connections)
        .add("requests", p.totalRequests)
        .add("requests_per_second", p.requestsPerSec, 0)
        .add("p50_us", p.p50Us, 1)
        .add("p99_us", p.p99Us, 1)
        .add("reactor_threads", 1)
        .add("thread_per_connection_equivalent", p.connections)
        .add("recv_calls", p.stats.recvCalls)
        .add("send_calls", p.stats.sendCalls)
        .add("epoll_waits", p.stats.epollWaits)
        .add("syscalls_per_request", syscallsPerRequest(p.stats), 2)
        .add("eventfd_wakeups", p.stats.eventfdWakeups)
        .add("read_pauses", p.stats.readPauses)
        .add("partial_writes", p.stats.partialWrites)
        .add("shared_reply_payload_bytes", p.stats.responses * kReplyBytes)
        .add("unique_reply_buffer_bytes", kReplyBytes);
  }
  benchutil::JsonObject doc;
  doc.add("workload",
          "closed-loop " + std::to_string(kRequestBytes) + "-byte request / " +
              std::to_string(kReplyBytes) +
              "-byte shared reply round trips, one reactor thread, inline "
              "completions")
      .add("note",
           "the client epoll harness runs on the same host as the reactor; "
           "the structural signals are syscalls per request staying ~constant "
           "as connections grow, 1 thread instead of thread-per-connection, "
           "and one shared reply buffer behind every connection's outbox")
      .add("sweep", rows);
  benchutil::writeBenchFile("BENCH_server.json", doc);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sweep = {100, 1'000, 10'000};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      sweep = {std::atoi(argv[++i])};
    } else {
      std::fprintf(stderr, "usage: %s [--connections N]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t fdLimit = raiseFdLimit();
  std::printf("=== Reactor: connection-count sweep (fd limit %zu) ===\n",
              fdLimit);
  std::printf("%12s %10s %12s %10s %10s %14s %9s\n", "connections",
              "requests", "req/s", "p50", "p99", "syscalls/req", "wakeups");
  // Client + server fds, epoll/eventfd handles, and stdio all share the
  // process-wide limit; clamp the top of the sweep to what fits rather
  // than silently dropping it.
  const int fdBudget = static_cast<int>((fdLimit - 64) / 2);
  std::vector<SweepPoint> points;
  for (int connections : sweep) {
    if (connections > fdBudget) {
      std::printf("%12d   clamped to %d (fd limit %zu)\n", connections,
                  fdBudget, fdLimit);
      connections = fdBudget;
    }
    if (!points.empty() && points.back().connections == connections) continue;
    SweepPoint point;
    if (!measure(connections, point)) return 1;
    points.push_back(point);
    std::printf("%12d %10d %12.0f %8.1fus %8.1fus %14.2f %9llu\n",
                point.connections, point.totalRequests, point.requestsPerSec,
                point.p50Us, point.p99Us, syscallsPerRequest(point.stats),
                static_cast<unsigned long long>(point.stats.eventfdWakeups));
  }
  if (points.empty()) return 1;
  std::printf("(the structural wins are 1 reactor thread vs "
              "thread-per-connection, ~flat syscalls/request, and zero-copy "
              "shared replies)\n");
  writeJson(points);
  return 0;
}
