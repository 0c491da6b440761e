// Consistent hash ring over backend names (src/fed).
//
// The federation router assigns every trace a stable preference order of
// backends: hash the trace name onto a ring of virtual nodes, walk
// clockwise, and collect each distinct backend once. Virtual nodes keep
// the assignment balanced; consistency keeps it *stable* — adding one
// backend to a ring of N moves only ~1/(N+1) of the keys (pinned by
// tests/fed/hash_ring_test.cpp), so a fleet resize does not stampede
// every cached reply and pooled connection at once. Positions are
// FNV-1a-64 (support/hash.h), so every router places a name alike.
//
// Not internally synchronized: the router's registry owns the ring and
// guards it with its own mutex.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/hash.h"

namespace ute {

class HashRing {
 public:
  explicit HashRing(std::size_t virtualNodes = 64)
      : virtualNodes_(virtualNodes == 0 ? 1 : virtualNodes) {}

  void add(const std::string& node) {
    for (std::size_t v = 0; v < virtualNodes_; ++v) {
      ring_.emplace(pointFor(node, v), node);
    }
  }

  void remove(const std::string& node) {
    for (std::size_t v = 0; v < virtualNodes_; ++v) {
      const std::uint64_t point = pointFor(node, v);
      // Points can collide across nodes; erase only this node's entries.
      auto [lo, hi] = ring_.equal_range(point);
      for (auto it = lo; it != hi;) {
        it = (it->second == node) ? ring_.erase(it) : std::next(it);
      }
    }
  }

  bool empty() const { return ring_.empty(); }

  /// The first backend clockwise of `key` — the ring's owner.
  std::string owner(const std::string& key) const {
    const std::vector<std::string> order = preferenceOrder(key, 1);
    return order.empty() ? std::string() : order[0];
  }

  /// Up to `maxNodes` distinct backends in clockwise order from `key`'s
  /// ring position: the owner first, then the failover candidates.
  std::vector<std::string> preferenceOrder(const std::string& key,
                                           std::size_t maxNodes) const {
    std::vector<std::string> order;
    if (ring_.empty() || maxNodes == 0) return order;
    auto it = ring_.lower_bound(fnv1a64(key));
    for (std::size_t steps = 0; steps < ring_.size(); ++steps) {
      if (it == ring_.end()) it = ring_.begin();
      if (std::find(order.begin(), order.end(), it->second) == order.end()) {
        order.push_back(it->second);
        if (order.size() >= maxNodes) break;
      }
      ++it;
    }
    return order;
  }

 private:
  std::uint64_t pointFor(const std::string& node, std::size_t replica) const {
    return fnv1a64(node + "#" + std::to_string(replica));
  }

  /// multimap: two virtual nodes hashing to the same point must not
  /// silently drop one backend.
  std::multimap<std::uint64_t, std::string> ring_;
  std::size_t virtualNodes_;
};

}  // namespace ute
