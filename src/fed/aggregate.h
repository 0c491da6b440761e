// Cross-trace metric reduction (src/fed).
//
// The fan-out half of AggregateMetrics / CompareTraces: pure functions
// from decoded .utm stores (src/analysis/metrics.h) to the federation
// wire types. Kept free of any router or network state so the oracle
// test can call exactly these functions on the per-trace stores it
// computed itself and demand equality with what the router returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "server/protocol.h"

namespace ute {

/// Five-number summary of `values` (nearest-rank percentiles; an empty
/// input yields all zeros). Sorts a copy; callers keep their order.
Distribution summarize(std::vector<double> values);

/// One trace's contribution to an aggregate.
struct AggregateInput {
  std::uint32_t globalId = 0;
  std::string backend;
  std::string name;
  const MetricsStore* store = nullptr;
};

/// The full AggregateMetrics reduction: each input's run-wide
/// commFraction, loadImbalance and lateSenderFraction (the store's
/// accessors over every bin) plus the three cross-run distributions.
AggregateReply aggregateStores(const std::vector<AggregateInput>& inputs);

/// The CompareTraces reduction: rebin both runs onto a common axis of
/// `bins` bins over each run's own [origin, totalEnd] (relative time, so
/// runs of different length and epoch line up), then emit per-bin
/// (B - A) deltas of comm fraction and load imbalance, each rebinned sum
/// put through the store's formula (fractionOf, imbalanceOf). `bins`
/// must be >= 1 (callers clamp).
CompareReply compareStores(const MetricsStore& a, const MetricsStore& b,
                           std::uint32_t bins);

}  // namespace ute
