// Minimal RAII TCP wrappers (loopback-oriented) for the query service.
//
// Just enough POSIX socket surface for a length-prefixed message
// protocol: a listener bound to 127.0.0.1 (port 0 picks an ephemeral
// port, reported back for tests and port files), a connected socket with
// full-length send/recv loops, and message framing helpers that apply
// the u32-length prefix and the kMaxMessageBytes sanity cap.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ute {

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();

  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connects to host:port; throws IoError on failure. With
  /// `timeoutMs > 0` the connect itself is bounded: a peer that neither
  /// accepts nor refuses within the budget fails with "connect timed
  /// out" instead of blocking for the kernel's (minutes-long) SYN
  /// retry cycle. Every failure names the endpoint (netContext).
  static TcpSocket connectTo(const std::string& host, std::uint16_t port,
                             int timeoutMs = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all of `data`; throws IoError on failure.
  void sendAll(std::span<const std::uint8_t> data);
  /// Reads exactly data.size() bytes. Returns false on clean EOF before
  /// the first byte; throws IoError on EOF mid-buffer or socket error.
  bool recvAll(std::span<std::uint8_t> data);

  /// Receive timeout (SO_RCVTIMEO): a recv blocked longer than this
  /// fails with IoError("recv timed out") instead of hanging forever —
  /// TraceClient's ClientOptions::recvTimeoutMs. 0 restores blocking
  /// reads.
  void setRecvTimeout(int milliseconds);

  void close();

 private:
  int fd_ = -1;
};

class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  /// Raw listening fd for event-loop registration (-1 once closed). The
  /// reactor accepts on it with accept4; after construction only the
  /// reactor's loop thread touches it.
  int fd() const { return fd_; }

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Writes `payload` as one length-prefixed message.
void sendMessage(TcpSocket& socket, std::span<const std::uint8_t> payload);
/// Reads one message; nullopt on clean EOF between messages. Throws
/// IoError on mid-message EOF and FormatError on an oversized length.
std::optional<std::vector<std::uint8_t>> recvMessage(TcpSocket& socket);

}  // namespace ute
