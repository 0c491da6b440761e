// Deterministic mutation test over the pinned layouts (pinned_buffers.h).
// Every pinned message and file is damaged three ways and handed to the
// decoder its receiver runs:
//   - truncated at every length;
//   - single bits flipped at seeded positions;
//   - a u32 0xFFFFFFFF written at every offset, which covers every count
//     field of every layout without this test knowing where they are.
// "Every" holds for buffers up to 4 KiB. The few larger ones (the
// preview, window and tail-metrics replies, and the two SLOG files) are
// mostly one run of f64 preview bins, u64 metric cells or fixed-width
// records, so there the sweeps take every position within 1 KiB of
// either end and 1024 seeded positions between; that keeps the whole
// test to a few seconds.
// Each damaged input must decode or throw a typed error (FormatError,
// CorruptFileError, ServiceError, IngestError or UsageError). Any other
// exception fails the test; a crash, an oversized allocation or undefined
// behaviour fails it under the ASan and UBSan lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>

#include "pinned_buffers.h"
#include "server/protocol.h"
#include "stream/ingest_protocol.h"

#include <unistd.h>

namespace ute::layout {
namespace {

/// Bit flips per buffer; seeded by the buffer's name.
constexpr int kFlipsPerBuffer = 64;
constexpr std::size_t kExhaustiveBytes = 4096;
constexpr std::size_t kEdgeBytes = 1024;
constexpr std::size_t kSampledPositions = 1024;

/// The positions in [0, n) a sweep visits, in ascending order.
std::vector<std::size_t> sweepPositions(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < n; ++i) {
    if (n <= kExhaustiveBytes || i < kEdgeBytes || i >= n - kEdgeBytes) {
      at.push_back(i);
    }
  }
  if (n > kExhaustiveBytes) {
    for (std::size_t i = 0; i < kSampledPositions; ++i) {
      at.push_back(kEdgeBytes + rng() % (n - 2 * kEdgeBytes));
    }
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
  }
  return at;
}

/// Runs the decoder; true when it refused the input with a typed error.
bool refused(const Pinned& p, std::span<const std::uint8_t> bytes,
             const std::string& mutation) {
  try {
    p.decode(bytes);
    return false;
  } catch (const FormatError&) {
  } catch (const ServiceError&) {
  } catch (const IngestError&) {
  } catch (const UsageError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << p.name << ", " << mutation
                  << ": untyped error: " << e.what();
  }
  return true;
}

void mutateAll(const std::vector<Pinned>& buffers) {
  for (const Pinned& p : buffers) {
    const std::span<const std::uint8_t> original = p.bytes;
    std::mt19937_64 rng(fnv1a64(std::span(
        reinterpret_cast<const std::uint8_t*>(p.name.data()),
        p.name.size())));
    std::size_t rejected = 0;
    for (const std::size_t len : sweepPositions(original.size(), rng)) {
      rejected += refused(p, original.first(len),
                          "truncated to " + std::to_string(len));
    }
    std::vector<std::uint8_t> bytes = p.bytes;
    for (int i = 0; i < kFlipsPerBuffer && !bytes.empty(); ++i) {
      const std::size_t bit = rng() % (bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      rejected += refused(p, bytes, "bit " + std::to_string(bit) + " flipped");
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    for (const std::size_t at : sweepPositions(bytes.size(), rng)) {
      if (at + 4 > bytes.size()) break;
      for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = 0xff;
      rejected += refused(
          p, bytes, "u32 at " + std::to_string(at) + " set to 0xFFFFFFFF");
      std::copy_n(p.bytes.begin() + at, 4, bytes.begin() + at);
    }
    // Every buffer has at least one mutation its decoder must refuse.
    EXPECT_GT(rejected, 0u) << p.name;
  }
}

TEST(LayoutMutation, QueryRequests) { mutateAll(queryRequests()); }

TEST(LayoutMutation, RowReplies) { mutateAll(queryReplies(false)); }

TEST(LayoutMutation, ColumnarReplies) { mutateAll(queryReplies(true)); }

TEST(LayoutMutation, FederationReplies) { mutateAll(fedReplies()); }

TEST(LayoutMutation, IngestMessages) { mutateAll(ingestMessages()); }

TEST(LayoutMutation, Files) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("layout_mutation." + std::to_string(getpid())))
                              .string();
  mutateAll(pinnedFiles(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ute::layout
