// Fixture for utecheck's token-level invariant rules: the clean twin of
// containment_bad.cpp. Lexed as src/fed/containment_good.cpp or as
// bench/containment_good.cpp it must produce no finding.
#include <cstdint>
#include <vector>

#include "server/tcp.h"
#include "support/file_io.h"
#include "support/thread_annotations.h"

namespace fixture {

// raw-io: member calls and another class's open() are not the C function.
void rawIo(FileReader& reader, Archive* archive) {
  reader.open("a");
  archive->open("b");
  Archive::open("c");
  // utecheck: allow(raw-io) — fixture: a justified waiver suppresses
  FILE* waived = fopen("d", "r");
}

// io-context: both throws name the file (and the offset).
void ioContextPresent(const std::string& path) {
  throw IoError(ioContext(path) + ": short read");
}
void corruptPresent(const std::string& path, std::uint64_t off) {
  throw CorruptFileError(ioContext(path, off) + ": bad magic");
}

// raw-mutex: the annotated wrappers.
ute::Mutex mu;
void lockAnnotated() {
  ute::MutexLock lock(mu);
}

// The fixture's escape hatch carries its reason.
int justified() UTE_NO_THREAD_SAFETY_ANALYSIS;

// bench-determinism: steady_clock and a seeded generator.
void timing(ute::Rng& rng, const Clock& clock) {
  auto start = std::chrono::steady_clock::now();
  auto value = rng.next();
  auto at = clock.time();
}

// codec-containment: a 7-bit mask alone is not a LEB128 loop.
unsigned low7(unsigned v) { return v & 0x7f; }

// fed-socket-containment: sockets through the tcp.h wrappers.
void sockets(TcpSocket& sock, TcpListener& listener) {
  sock.connect("host", 80);
  listener.listen(80);
}

// reactor-containment: a member poll() is not the readiness call.
void drain(Backend& backend) {
  backend.poll();
  Backend::select(1);
}

// Macro bodies: member calls and the annotated wrappers stay clean.
#define FIXTURE_OPEN(reader, path) (reader).open(path)
#define FIXTURE_LOCK(mu) \
  ute::MutexLock fixtureLock(mu)

}  // namespace fixture
