#include "server/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/protocol.h"
#include "support/bytes.h"
#include "support/errors.h"

namespace ute {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Request/response on one connection is strictly ping-pong, so Nagle
/// only adds delayed-ACK stalls; disable it on both ends.
void setNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpSocket::~TcpSocket() { close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpSocket TcpSocket::connectTo(const std::string& host, std::uint16_t port,
                               int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket");
  TcpSocket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw IoError("bad host address" + netContext(host, port));
  }
  if (timeoutMs <= 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw IoError(std::string("connect failed: ") + std::strerror(errno) +
                    netContext(host, port));
    }
    setNoDelay(fd);
    return socket;
  }
  // Bounded connect: go non-blocking for the handshake, poll for
  // writability, read SO_ERROR for the verdict, then restore blocking
  // mode for the plain send/recv loops.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      throw IoError(std::string("connect failed: ") + std::strerror(errno) +
                    netContext(host, port));
    }
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeoutMs);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      throw IoError("connect timed out after " + std::to_string(timeoutMs) +
                    "ms" + netContext(host, port));
    }
    if (ready < 0) throwErrno("poll");
    int soError = 0;
    socklen_t len = sizeof soError;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len);
    if (soError != 0) {
      throw IoError(std::string("connect failed: ") +
                    std::strerror(soError) + netContext(host, port));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  setNoDelay(fd);
  return socket;
}

void TcpSocket::sendAll(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool TcpSocket::recvAll(std::span<std::uint8_t> data) {
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::recv(fd_, data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw IoError("recv timed out");
      }
      throwErrno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;
      throw IoError("connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpSocket::setRecvTimeout(int milliseconds) {
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    throwErrno("setsockopt SO_RCVTIMEO");
  }
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throwErrno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throwErrno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throwErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = fd;
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void sendMessage(TcpSocket& socket, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxMessageBytes) {
    throw UsageError("message exceeds kMaxMessageBytes");
  }
  // One send for prefix + payload: a response must never sit in the
  // kernel waiting for a second write (or an ACK) to complete a message.
  ByteWriter message;
  message.buffer().reserve(4 + payload.size());
  message.u32(static_cast<std::uint32_t>(payload.size()));
  message.bytes(payload);
  socket.sendAll(message.view());
}

std::optional<std::vector<std::uint8_t>> recvMessage(TcpSocket& socket) {
  std::uint8_t prefix[4];
  if (!socket.recvAll(prefix)) return std::nullopt;
  ByteReader r(prefix);
  const std::uint32_t length = r.u32();
  if (length > kMaxMessageBytes) {
    throw FormatError("message length " + std::to_string(length) +
                      " exceeds protocol maximum");
  }
  std::vector<std::uint8_t> payload(length);
  if (length > 0 && !socket.recvAll(payload)) {
    throw IoError("connection closed before message body");
  }
  return payload;
}

}  // namespace ute
