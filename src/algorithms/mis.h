// Maximal independent set (Section 4.3.3), rootset-based with random
// priorities [17]: a vertex joins the MIS once every remaining lower-
// priority neighbor has been decided. Priority-counter propagation gives
// O(m) expected work and O(log^2 n) depth whp; all state is O(n) words.
#pragma once

#include <atomic>
#include <vector>

#include "graph/types.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"
#include "nvram/execution_context.h"

namespace sage {

/// Returns a {0,1} per-vertex indicator of a maximal independent set.
template <typename GraphT>
std::vector<uint8_t> MaximalIndependentSet(const GraphT& g,
                                           uint64_t seed = 1) {
  const vertex_id n = g.num_vertices();
  enum : uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

  // priority[v]: position of v in a random permutation; smaller = earlier.
  auto perm = random_permutation(n, seed);
  std::vector<uint32_t> priority(n);
  parallel_for(0, n, [&](size_t i) { priority[perm[i]] = i; });

  // count[v] = undecided neighbors with smaller priority.
  std::vector<std::atomic<uint32_t>> count(n);
  std::vector<std::atomic<uint8_t>> status(n);
  parallel_for(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    uint32_t c = 0;
    g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
      c += priority[u] < priority[v] ? 1 : 0;
    });
    count[vi].store(c, std::memory_order_relaxed);
    status[vi].store(kUndecided, std::memory_order_relaxed);
  });
  nvram::Cost().ChargeWorkWrite(2 * n);

  auto roots = pack_index<vertex_id>(n, [&](size_t v) {
    return count[v].load(std::memory_order_relaxed) == 0;
  });

  while (!roots.empty()) {
    // Roots are mutually non-adjacent local minima: all join the MIS.
    std::vector<std::vector<vertex_id>> newly_out(Scheduler::kMaxShards);
    parallel_for(0, roots.size(), [&](size_t i) {
      vertex_id v = roots[i];
      status[v].store(kIn, std::memory_order_relaxed);
      g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
        uint8_t expected = kUndecided;
        if (status[u].compare_exchange_strong(expected, kOut,
                                              std::memory_order_relaxed)) {
          newly_out[shard_id()].push_back(u);
        }
      });
    });
    auto out_now = flatten(newly_out);
    // Each decided-out vertex releases its higher-priority neighbors.
    std::vector<std::vector<vertex_id>> next_roots(Scheduler::kMaxShards);
    parallel_for(0, out_now.size(), [&](size_t i) {
      vertex_id u = out_now[i];
      g.MapNeighbors(u, [&](vertex_id, vertex_id x, weight_t) {
        if (priority[x] > priority[u] &&
            status[x].load(std::memory_order_relaxed) == kUndecided) {
          if (count[x].fetch_sub(1, std::memory_order_relaxed) == 1) {
            next_roots[shard_id()].push_back(x);
          }
        }
      });
    });
    // A vertex may be marked kOut after its count reached zero; re-check.
    auto candidates = flatten(next_roots);
    roots = filter(candidates, [&](vertex_id v) {
      return status[v].load(std::memory_order_relaxed) == kUndecided;
    });
    nvram::Cost().ChargeWorkWrite(out_now.size() + roots.size());
  }
  return tabulate<uint8_t>(n, [&](size_t v) {
    return status[v].load(std::memory_order_relaxed) == kIn ? 1 : 0;
  });
}

}  // namespace sage
