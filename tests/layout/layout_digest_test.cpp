// Byte-exact layout pins. Every file and wire message the project
// writes is built from fixed inputs and its FNV-1a-64 digest compared
// against a constant recorded when the layout was frozen. Round-trip
// tests cannot see a change made identically on the writing and the
// reading side; these can.
//
// Print the current digests (only for an intentional, versioned layout
// change): UTE_PRINT_LAYOUT_DIGESTS=1 ./layout_tests
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "pinned_buffers.h"

#include <unistd.h>

namespace ute::layout {
namespace {

const std::map<std::string, std::uint64_t>& expectedDigests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"request.hello", 0x8217ada1da4bbdc4ull},
      {"request.hello-row", 0x8217afa1da4bc12aull},
      {"request.hello-legacy", 0x8b09b7ef4e2697b4ull},
      {"request.info", 0x5b076f6fcafac4e3ull},
      {"request.states", 0x4e588c454dab5a80ull},
      {"request.threads", 0xa720c26ebad74335ull},
      {"request.preview", 0x9a71df443d87d8d2ull},
      {"request.window", 0x05f39960577b6bd0ull},
      {"request.window-filtered", 0xdf8e85ab08a6a60cull},
      {"request.summary", 0x4669a8de00790f20ull},
      {"request.frame-at", 0x187ec8e596663811ull},
      {"request.stats", 0x44bd32d473cd037eull},
      {"request.shutdown", 0x44bd31d473cd01cbull},
      {"request.metrics", 0xc46bbb92d2802a08ull},
      {"request.tail-frames", 0x1a31c29ab48e03aeull},
      {"request.tail-metrics", 0xffe8f89828032beaull},
      {"request.list-traces", 0x44bd35d473cd0897ull},
      {"request.aggregate", 0x03555f018642ccbdull},
      {"request.compare", 0xa283222d21623512ull},
      {"request.add-backend", 0x9358d882dc7904a7ull},
      {"request.remove-backend", 0xe74d6d06f4a10eb8ull},
      {"row.reply.hello-legacy", 0x920540c374706d69ull},
      {"row.reply.hello", 0xc5f42168d5e68d36ull},
      {"row.reply.stats", 0x74259214f4c35099ull},
      {"row.reply.info", 0x1614a030ebb4a79bull},
      {"row.reply.states", 0x21223e4df1b1519cull},
      {"row.reply.threads", 0x56dcbd4b9f05402bull},
      {"row.reply.preview", 0x6e3dcd470c717652ull},
      {"row.reply.window", 0x01f2cc31b44579a4ull},
      {"row.reply.window-filtered", 0xfa079754d5cb495dull},
      {"row.reply.frame-at", 0x6d7617431cc21a75ull},
      {"row.reply.summary", 0xe8826ac8251a7a1cull},
      {"row.reply.metrics", 0xb05b35be431c2132ull},
      {"row.reply.tail-frames", 0x8f69acfdbcebcefeull},
      {"row.reply.tail-metrics", 0xb245d884b2ad95d9ull},
      {"row.reply.error.bad-trace", 0x3253d8be6b1d5891ull},
      {"row.reply.error.bad-window", 0x37445454c5a72b23ull},
      {"row.reply.error.frame-at-outside", 0x19fef935c74525e4ull},
      {"row.reply.error.truncated", 0x7ea98eb267609bfdull},
      {"row.reply.error.empty", 0x35da092ef84dc371ull},
      {"row.reply.error.federation-op", 0xf3072d2e1d70d77dull},
      {"row.reply.error.unknown-opcode", 0xd844586b7bc93719ull},
      {"row.reply.shutdown", 0x44bd2bd473ccf799ull},
      {"columnar.reply.hello", 0xc5f42268d5e68ee9ull},
      {"columnar.reply.stats", 0x74259214f4c35099ull},
      {"columnar.reply.info", 0x1614a030ebb4a79bull},
      {"columnar.reply.states", 0x21223e4df1b1519cull},
      {"columnar.reply.threads", 0x56dcbd4b9f05402bull},
      {"columnar.reply.preview", 0x6e3dcd470c717652ull},
      {"columnar.reply.window", 0xad0613219bb4c55aull},
      {"columnar.reply.window-filtered", 0xe86aa55f5868ae04ull},
      {"columnar.reply.frame-at", 0xefda82fb07ddee40ull},
      {"columnar.reply.summary", 0xe8826ac8251a7a1cull},
      {"columnar.reply.metrics", 0xb05b35be431c2132ull},
      {"columnar.reply.tail-frames", 0x549cd778c124595cull},
      {"columnar.reply.tail-metrics", 0xb245d884b2ad95d9ull},
      {"columnar.reply.error.bad-trace", 0x3253d8be6b1d5891ull},
      {"columnar.reply.error.bad-window", 0x37445454c5a72b23ull},
      {"columnar.reply.error.frame-at-outside", 0x19fef935c74525e4ull},
      {"columnar.reply.error.truncated", 0x7ea98eb267609bfdull},
      {"columnar.reply.error.empty", 0x35da092ef84dc371ull},
      {"columnar.reply.error.federation-op", 0xf3072d2e1d70d77dull},
      {"columnar.reply.error.unknown-opcode", 0xd844586b7bc93719ull},
      {"columnar.reply.shutdown", 0x44bd2bd473ccf799ull},
      {"fed.list-traces", 0x586d5688d366e8d5ull},
      {"fed.aggregate", 0xa4599d23f02eac5full},
      {"fed.compare", 0xc29047190ec42070ull},
      {"ingest.hello", 0x47e2af797a696963ull},
      {"ingest.threads", 0xe312207f3dcaa8edull},
      {"ingest.marker", 0xa7b44db7c6e0f70bull},
      {"ingest.clock-pairs", 0x5ba9790873c5defaull},
      {"ingest.clock-pairs-final", 0x1068bf9a58b9a1c1ull},
      {"ingest.records", 0xaacb442969a582e0ull},
      {"ingest.bye", 0x44bd2dd473ccfaffull},
      {"ingest.reply-ok", 0x44bd2bd473ccf799ull},
      {"ingest.reply-error", 0xea6978e8c430fea3ull},
      {"file.slog-v1", 0xd3938b3441182fbaull},
      {"file.slog-v2", 0xb3a7eee6f47f9e1bull},
      {"file.uti-node", 0x84d123d8ecf6c336ull},
      {"file.uti-merged", 0x621b5bed58975acfull},
  };
  return digests;
}

void expectPinned(const std::vector<Pinned>& buffers) {
  const bool print = std::getenv("UTE_PRINT_LAYOUT_DIGESTS") != nullptr;
  for (const Pinned& p : buffers) {
    const std::uint64_t got = fnv1a64(p.bytes);
    if (print) {
      std::printf("      {\"%s\", 0x%016llxull},\n", p.name.c_str(),
                  static_cast<unsigned long long>(got));
      continue;
    }
    const auto it = expectedDigests().find(p.name);
    ASSERT_NE(it, expectedDigests().end()) << "no pinned digest for "
                                           << p.name;
    EXPECT_EQ(got, it->second)
        << p.name << " (" << p.bytes.size()
        << " bytes) no longer has the layout it was frozen with";
  }
}

TEST(LayoutDigest, QueryRequests) { expectPinned(queryRequests()); }

TEST(LayoutDigest, RowRepliesForGoldenFile) {
  expectPinned(queryReplies(/*columnar=*/false));
}

TEST(LayoutDigest, ColumnarRepliesForGoldenFile) {
  expectPinned(queryReplies(/*columnar=*/true));
}

TEST(LayoutDigest, FederationReplies) { expectPinned(fedReplies()); }

TEST(LayoutDigest, IngestMessages) { expectPinned(ingestMessages()); }

TEST(LayoutDigest, Files) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("layout_digest." + std::to_string(getpid())))
                              .string();
  expectPinned(pinnedFiles(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ute::layout
