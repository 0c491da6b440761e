// Ablation for Section 3.1's merge data structure: the balanced
// (tournament) tree holding one node per input interval file vs a naive
// O(k) linear scan per output record. Prints a table of merge times
// across input-file counts (synthetic inputs up to k=1024), with the
// faster path of each row as measured, and benchmarks both paths.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "support/rng.h"

namespace {

using namespace ute;

std::string gDir;

std::string writeInputFile(NodeId node, int records, std::uint64_t seed) {
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {
      {node, 1000 + node, 10000 + node, node, 0, ThreadType::kMpi}};
  const std::string path =
      gDir + "/in" + std::to_string(node) + ".uti";
  IntervalFileWriter w(path, options, threads);
  Rng rng(seed);
  Tick t = 0;
  // Two clock pairs make the file merge-adjustable (identity-ish).
  ByteWriter cs0;
  cs0.u64(0);
  w.addRecord(encodeRecordBody(
                  makeIntervalType(kClockSyncState, Bebits::kComplete), 0, 0,
                  0, node, 0, cs0.view())
                  .view());
  for (int i = 0; i < records; ++i) {
    // Step >= max duration keeps the required end-time ordering.
    t += 2000 + rng.below(4000);
    w.addRecord(encodeRecordBody(
                    makeIntervalType(kRunningState, Bebits::kComplete), t,
                    rng.below(2000), 0, node, 0)
                    .view());
  }
  ByteWriter cs1;
  cs1.u64(t + 5000);
  w.addRecord(encodeRecordBody(
                  makeIntervalType(kClockSyncState, Bebits::kComplete),
                  t + 5000, 0, 0, node, 0, cs1.view())
                  .view());
  w.close();
  return path;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

std::vector<std::string> inputsFor(int k, int recordsEach) {
  std::vector<std::string> paths;
  for (int i = 0; i < k; ++i) {
    paths.push_back(writeInputFile(i, recordsEach,
                                   static_cast<std::uint64_t>(i) + 1));
  }
  return paths;
}

void printAblation() {
  const Profile profile = makeStandardProfile();
  std::printf("=== Ablation (Section 3.1): tournament-tree vs naive merge "
              "===\n");
  std::printf("%6s %12s %12s %12s %8s  %s\n", "k", "records", "tree ms",
              "naive ms", "speedup", "faster");
  // One merge here takes ~0.1 s, and noise from other processes moves
  // a single run by more than the selection cost at small k. So the
  // paths run in kRuns back-to-back pairs, alternating which goes
  // first; a row reports each path's median and the median of the
  // per-pair speedups, which cancels drift slower than one pair.
  constexpr int kRuns = 11;
  std::printf("(medians of %d alternating tree/naive pairs; speedup is "
              "the median of the per-pair naive/tree ratios)\n",
              kRuns);
  std::string treeWinsAt;
  std::string naiveWinsAt;
  for (int k : {2, 4, 8, 16, 32, 64, 256, 1024}) {
    const int recordsEach = 200000 / k;
    const auto inputs = inputsFor(k, recordsEach);
    std::vector<double> treeRuns;
    std::vector<double> naiveRuns;
    std::vector<double> speedups;
    for (int run = 0; run < kRuns; ++run) {
      double pairMs[2] = {0, 0};
      for (int step = 0; step < 2; ++step) {
        const int mode = (run + step) % 2;
        MergeOptions options;
        options.useNaiveMerge = mode == 1;
        const auto t0 = benchutil::now();
        IntervalMerger merger(inputs, profile, options);
        merger.mergeTo(gDir + "/out.uti");
        pairMs[mode] = benchutil::secondsSince(t0) * 1e3;
      }
      treeRuns.push_back(pairMs[0]);
      naiveRuns.push_back(pairMs[1]);
      speedups.push_back(pairMs[1] / pairMs[0]);
    }
    const double treeMs = median(treeRuns);
    const double naiveMs = median(naiveRuns);
    const double speedup = median(speedups);
    const bool treeWins = speedup > 1;
    std::printf("%6d %12d %12.2f %12.2f %8.2f  %s\n", k, k * recordsEach,
                treeMs, naiveMs, speedup, treeWins ? "tree" : "naive");
    std::string& winsAt = treeWins ? treeWinsAt : naiveWinsAt;
    winsAt += ' ';
    winsAt += std::to_string(k);
  }
  std::printf("(tree faster at k =%s; naive scan faster at k =%s)\n\n",
              treeWinsAt.empty() ? " none" : treeWinsAt.c_str(),
              naiveWinsAt.empty() ? " none" : naiveWinsAt.c_str());
}

void BM_Merge(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  const int k = static_cast<int>(state.range(0));
  const bool naive = state.range(1) != 0;
  const auto inputs = inputsFor(k, 100000 / k);
  std::uint64_t records = 0;
  for (auto _ : state) {
    MergeOptions options;
    options.useNaiveMerge = naive;
    IntervalMerger merger(inputs, profile, options);
    records += merger.mergeTo(gDir + "/bm_out.uti").recordsOut;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel(naive ? "naive" : "tree");
}
BENCHMARK(BM_Merge)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  gDir = ute::makeScratchDir("bench_merge_ablation");
  printAblation();
  return ute::benchutil::runBenchmarks(argc, argv);
}
