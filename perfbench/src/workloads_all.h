// The three workloads and the metric names every run reports.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

WorkloadResult runBatchWide(const RunOptions& opt);
WorkloadResult runQueryZipf(const RunOptions& opt);
WorkloadResult runLiveTail(const RunOptions& opt);

/// Per-layer metric names and units, in report order. A workload that
/// does not drive a layer reports its metrics as 0 (nothing measured).
struct MetricName {
  const char* name;
  const char* unit;
};
const std::vector<MetricName>& perLayerNames();

}  // namespace perfbench
