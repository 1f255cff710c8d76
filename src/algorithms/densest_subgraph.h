// (2+eps)-approximate densest subgraph via parallel threshold peeling
// (Section 4.3.4; Bahmani et al. style, matching Charikar's sequential
// 2-approximation quality for small eps). Each round removes every vertex
// of degree <= 2(1+eps) * current density and counts the live neighbors'
// losses with the neighbor histogram into one n-word counter array that
// lives for the whole run: a relaxed fetch-and-add per edge for a small
// frontier, the dense O(n + m) scan when the frontier's |U| + deg(U)
// exceeds m/20 (the early rounds peel most of the graph, and the dense
// scan keeps them free of atomics). O(log n) rounds; PSAM: O(m) work,
// O(log^2 n) depth, O(n) words.
#pragma once

#include <utility>
#include <vector>

#include "core/histogram.h"
#include "core/vertex_subset.h"
#include "graph/types.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Result of the approximate densest-subgraph computation.
struct DensestSubgraphResult {
  /// Density |E(S)| / |S| of the best prefix found.
  double density = 0.0;
  /// The vertices of the best subgraph.
  std::vector<vertex_id> members;
  /// Peeling rounds executed.
  uint64_t rounds = 0;
};

/// Computes a 2(1+eps)-approximation of the maximum subgraph density.
template <typename GraphT>
DensestSubgraphResult ApproxDensestSubgraph(const GraphT& g,
                                            double eps = 0.001) {
  const vertex_id n = g.num_vertices();
  std::vector<uint32_t> degree(n);
  std::vector<uint32_t> removed_round(n, 0);  // 0 = still alive
  // The neighbor histogram's counters: zero between rounds.
  std::vector<uint32_t> lost(n, 0);
  nvram::TrackedAllocation lost_words(size_t{n} * sizeof(uint32_t));
  parallel_for(0, n, [&](size_t v) {
    degree[v] = g.degree_uncharged(static_cast<vertex_id>(v));
  });
  uint64_t live_vertices = n;
  uint64_t live_degree_sum = g.num_edges();  // sum of live degrees = 2|E|

  DensestSubgraphResult result;
  if (n == 0) return result;
  double best_density =
      static_cast<double>(live_degree_sum) / 2.0 / live_vertices;
  uint32_t best_round = 0;  // alive-at-round criterion
  uint32_t round = 0;

  while (live_vertices > 0) {
    ++round;
    double rho = static_cast<double>(live_degree_sum) / 2.0 /
                 static_cast<double>(live_vertices);
    double threshold = 2.0 * (1.0 + eps) * rho;
    auto peel = pack_index<vertex_id>(n, [&](size_t v) {
      return removed_round[v] == 0 &&
             static_cast<double>(degree[v]) <= threshold;
    });
    SAGE_CHECK_MSG(!peel.empty(),
                   "threshold peeling must remove the average degree");
    parallel_for(0, peel.size(),
                 [&](size_t i) { removed_round[peel[i]] = round; });
    live_vertices -= peel.size();
    nvram::Cost().ChargeWorkWrite(peel.size());
    // Count the live neighbors' losses, then apply and zero each count.
    auto frontier = VertexSubset::Sparse(n, std::move(peel));
    const auto listed = NeighborHistogram(
        g, frontier, [&](vertex_id u) { return removed_round[u] == 0; },
        lost);
    parallel_for(0, listed.size(), [&](size_t i) {
      const vertex_id u = listed[i];
      const uint32_t cnt = std::exchange(lost[u], 0);
      degree[u] = degree[u] >= cnt ? degree[u] - cnt : 0;
    });
    // Recompute the live degree sum (O(n) per round, O(n log n) total).
    live_degree_sum = reduce_add<uint64_t>(n, [&](size_t v) {
      return removed_round[v] == 0 ? degree[v] : 0;
    });
    if (live_vertices > 0) {
      double d = static_cast<double>(live_degree_sum) / 2.0 /
                 static_cast<double>(live_vertices);
      if (d > best_density) {
        best_density = d;
        best_round = round;
      }
    }
  }
  result.density = best_density;
  result.rounds = round;
  // The best subgraph = vertices still alive after `best_round` rounds.
  result.members = pack_index<vertex_id>(n, [&](size_t v) {
    return removed_round[v] == 0 || removed_round[v] > best_round;
  });
  return result;
}

}  // namespace sage
