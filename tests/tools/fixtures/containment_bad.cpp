// Fixture for utecheck's token-level invariant rules. The test lexes it
// under made-up repo-relative paths: as src/fed/containment_bad.cpp each
// line marked `expect:` must be flagged with that rule and nothing else
// may be; as bench/containment_bad.cpp the lines marked `expect-bench:`
// are exactly the bench-determinism findings.
#include <mutex>  // expect: raw-mutex
#include <netinet/in.h>  // expect: fed-socket-containment
#include <sys/epoll.h>  // expect: reactor-containment
#include <sys/socket.h>  // expect: fed-socket-containment

#include "support/file_io.h"

namespace fixture {

// raw-io: the C file functions, however they are spelled.
void rawIo() {
  FILE* a = fopen("a", "r");  // expect: raw-io
  FILE* b = std::fopen("b", "r");  // expect: raw-io
  int fd = ::open("c", 0);  // expect: raw-io
  void* m = mmap(nullptr, 4, 0, 0, fd, 0);  // expect: raw-io
}

// io-context: file-I/O throws must name the file.
void ioContextMissing(const std::string& path) {
  throw IoError("short read on " + path);  // expect: io-context
}
void corruptMissing() {
  throw CorruptFileError("bad magic");  // expect: io-context
}

// raw-mutex: std:: primitives are invisible to the thread-safety analysis.
std::mutex rawMutex;  // expect: raw-mutex
void lockRaw() {
  std::lock_guard guard(rawMutex);  // expect: raw-mutex
}

int unjustified()
    UTE_NO_THREAD_SAFETY_ANALYSIS;  // expect: ts-escape

// bench-determinism: wall clocks and unseeded randomness.
void wallClock() {
  auto now = std::chrono::system_clock::now();  // expect-bench: bench-determinism
  std::time_t t = std::time(nullptr);  // expect-bench: bench-determinism
  srand(static_cast<unsigned>(t));  // expect-bench: bench-determinism
  int r = std::rand();  // expect-bench: bench-determinism
}

// codec-containment: one varint codec, in src/slog.
void codec(std::vector<unsigned char>& out, std::uint64_t v) {
  putVarint(out, v);  // expect: codec-containment
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v & 0x7f | 0x80));  // expect: codec-containment
    v >>= 7;
  }
}

// fed-socket-containment: federation reaches sockets only through tcp.h.
void sockets() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);  // expect: fed-socket-containment
  int peer = ::socket(AF_INET, SOCK_STREAM, 0);  // expect: fed-socket-containment
  ::connect(peer, nullptr, 0);  // expect: fed-socket-containment
  unsigned short port = htons(80);  // expect: fed-socket-containment
}

// Macro bodies, continuation lines included, are held to the same rules.
#define FIXTURE_OPEN(path) ::fopen(path, "r")  // expect: raw-io
#define FIXTURE_LOCK(m) \
  std::lock_guard fixtureGuard(m)  // expect: raw-mutex

// reactor-containment: one event loop, in src/server/reactor.*.
void ownLoop() {
  int ep = epoll_create1(0);  // expect: reactor-containment
  epoll_event events[4];
  ::epoll_wait(ep, events, 4, 0);  // expect: reactor-containment
  fcntl(ep, F_SETFL, O_NONBLOCK);  // expect: reactor-containment
  ::poll(nullptr, 0, 0);  // expect: reactor-containment
}

}  // namespace fixture
