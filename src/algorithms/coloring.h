// Greedy graph coloring with Jones-Plassmann priorities (Section 4.3.3),
// using the LLF (largest-log-degree-first) order of Hasenplaugh et al.
// A vertex colors itself with the smallest color unused by its neighbors
// once every higher-priority neighbor is colored. At most Delta+1 colors.
// PSAM: O(m) expected work, O(log n + L log Delta) depth, O(n) words.
#pragma once

#include <atomic>
#include <vector>

#include "common/random.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

namespace internal {

/// LLF priority: compare by (log2-degree bucket desc, hash asc, id asc).
/// Returns true when u must be colored before v.
struct LlfOrder {
  const uint32_t* log_deg;
  uint64_t seed;
  bool Before(vertex_id u, vertex_id v) const {
    if (log_deg[u] != log_deg[v]) return log_deg[u] > log_deg[v];
    uint64_t hu = Hash64(seed ^ u), hv = Hash64(seed ^ v);
    if (hu != hv) return hu < hv;
    return u < v;
  }
};

}  // namespace internal

/// Returns a proper coloring of g (color ids starting at 0, at most
/// Delta + 1 distinct).
template <typename GraphT>
std::vector<uint32_t> GraphColoring(const GraphT& g, uint64_t seed = 1) {
  const vertex_id n = g.num_vertices();
  constexpr uint32_t kUncolored = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> log_deg(n);
  parallel_for(0, n, [&](size_t v) {
    uint32_t d = g.degree_uncharged(static_cast<vertex_id>(v));
    uint32_t ld = 0;
    while ((1u << ld) <= d) ++ld;
    log_deg[v] = ld;
  });
  internal::LlfOrder order{log_deg.data(), seed};

  std::vector<std::atomic<uint32_t>> waiting(n);  // uncolored predecessors
  std::vector<std::atomic<uint32_t>> color(n);
  parallel_for(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    uint32_t c = 0;
    g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
      c += order.Before(u, v) ? 1 : 0;
    });
    waiting[vi].store(c, std::memory_order_relaxed);
    color[vi].store(kUncolored, std::memory_order_relaxed);
  });
  nvram::Cost().ChargeWorkWrite(2 * n);

  auto frontier = pack_index<vertex_id>(n, [&](size_t v) {
    return waiting[v].load(std::memory_order_relaxed) == 0;
  });
  size_t colored = 0;
  while (!frontier.empty()) {
    colored += frontier.size();
    // Color the ready vertices: all their predecessors are final.
    parallel_for(0, frontier.size(), [&](size_t i) {
      vertex_id v = frontier[i];
      uint32_t d = g.degree_uncharged(v);
      // Mark used colors < d + 1 (mex is at most deg).
      constexpr uint32_t kStackColors = 1024;
      uint8_t stack_used[kStackColors] = {};
      std::vector<uint8_t> heap_used;
      uint8_t* used = stack_used;
      if (d + 1 > kStackColors) {
        heap_used.assign(d + 1, 0);
        used = heap_used.data();
      }
      g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
        uint32_t cu = color[u].load(std::memory_order_relaxed);
        if (cu <= d) used[cu] = 1;
      });
      uint32_t c = 0;
      while (used[c]) ++c;
      color[v].store(c, std::memory_order_relaxed);
      nvram::Cost().ChargeWorkWrite(1);
    });
    // Release successors.
    std::vector<std::vector<vertex_id>> next(Scheduler::kMaxShards);
    parallel_for(0, frontier.size(), [&](size_t i) {
      vertex_id v = frontier[i];
      g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
        if (order.Before(v, u) &&
            waiting[u].fetch_sub(1, std::memory_order_relaxed) == 1) {
          next[shard_id()].push_back(u);
        }
      });
    });
    frontier = flatten(next);
  }
  SAGE_CHECK_MSG(colored == n, "coloring dependency chain stalled");
  return tabulate<uint32_t>(n, [&](size_t v) {
    return color[v].load(std::memory_order_relaxed);
  });
}

}  // namespace sage
