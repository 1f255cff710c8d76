// General-weight SSSP via frontier-based Bellman-Ford (Section 4.3.1).
// PSAM bounds: O(d_G * m) work, O(d_G log n) depth, O(n) words of DRAM.
#pragma once

#include <atomic>
#include <vector>

#include "core/edge_map.h"
#include "core/vertex_subset.h"
#include "graph/types.h"

namespace sage {

namespace internal {

/// Atomic write-min; returns true if the stored value decreased.
inline bool WriteMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur) {
    if (target->compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Atomic write-max; returns true if the stored value increased.
inline bool WriteMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur) {
    if (target->compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace internal

/// Bellman-Ford relaxation functor. `in_next` de-duplicates the output
/// frontier within a round (a vertex relaxed by several sources enters the
/// next frontier once). cond() is always true, so a pull scan could never
/// stop early: dense rounds run dense-forward (core/edge_map.h).
struct BellmanFordF {
  static constexpr bool kNoEarlyExit = true;
  std::atomic<uint64_t>* dist;
  std::atomic<uint8_t>* in_next;

  bool update(vertex_id s, vertex_id d, weight_t w) {
    return updateAtomic(s, d, w);
  }
  bool updateAtomic(vertex_id s, vertex_id d, weight_t w) {
    uint64_t nd = dist[s].load(std::memory_order_relaxed) + w;
    if (internal::WriteMin(&dist[d], nd)) {
      uint8_t expected = 0;
      return in_next[d].compare_exchange_strong(expected, 1,
                                                std::memory_order_relaxed);
    }
    return false;
  }
  bool cond(vertex_id) { return true; }
};

/// Shortest-path distances from src. Positive integral weights (the paper's
/// experimental setting), so no negative-cycle handling is required; rounds
/// are bounded by n as a safety net.
template <typename GraphT>
std::vector<uint64_t> BellmanFord(const GraphT& g, vertex_id src,
                                  const EdgeMapOptions& opts =
                                      EdgeMapOptions{}) {
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<uint64_t>> dist(n);
  std::vector<std::atomic<uint8_t>> in_next(n);
  parallel_for(0, n, [&](size_t v) {
    dist[v].store(kInfDist, std::memory_order_relaxed);
    in_next[v].store(0, std::memory_order_relaxed);
  });
  dist[src].store(0, std::memory_order_relaxed);
  auto frontier = VertexSubset::Single(n, src);
  for (vertex_id round = 0; round < n && !frontier.IsEmpty(); ++round) {
    BellmanFordF f{dist.data(), in_next.data()};
    frontier = EdgeMap(g, frontier, f, opts);
    // Reset the de-dup flags for the vertices that entered the frontier.
    frontier.Map([&](vertex_id v) {
      in_next[v].store(0, std::memory_order_relaxed);
    });
  }
  return tabulate<uint64_t>(n, [&](size_t v) {
    return dist[v].load(std::memory_order_relaxed);
  });
}

}  // namespace sage
