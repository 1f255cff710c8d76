// PageRank (Section 4.3.5). Dense iterations with a parallel reduction
// over each vertex's in-neighborhood - the paper's improvement over
// Ligra's sequential per-vertex aggregation, giving O(m) work and
// O(log n) depth per iteration. State is O(n) words of DRAM; only the
// degree-normalized contribution array is rewritten each round.
#pragma once

#include <cmath>
#include <vector>

#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Result of a PageRank run.
struct PageRankResult {
  std::vector<double> rank;
  uint64_t iterations = 0;
  double final_delta = 0.0;  // L1 change of the last iteration
};

/// Runs PageRank with damping 0.85 until the L1 change drops below
/// `epsilon` (the paper uses 1e-6) or `max_iters` iterations.
template <typename GraphT>
PageRankResult PageRank(const GraphT& g, double epsilon = 1e-6,
                        uint64_t max_iters = 100) {
  const vertex_id n = g.num_vertices();
  const double damping = 0.85;
  PageRankResult result;
  if (n == 0) return result;
  std::vector<double> p(n, 1.0 / n), contrib(n), next(n);
  auto& cm = nvram::Cost();
  for (uint64_t it = 0; it < max_iters; ++it) {
    // contrib[u] = p[u] / deg(u), read repeatedly by neighbors.
    parallel_for(0, n, [&](size_t u) {
      uint32_t d = g.degree_uncharged(static_cast<vertex_id>(u));
      contrib[u] = d == 0 ? 0.0 : p[u] / d;
    });
    cm.ChargeWorkWrite(n);
    parallel_for_batched(0, n, [&](size_t vi) {
      vertex_id v = static_cast<vertex_id>(vi);
      double acc = g.template ReduceNeighbors<double>(
          v,
          [&](vertex_id, vertex_id u, weight_t) { return contrib[u]; },
          [](double a, double b) { return a + b; }, 0.0);
      next[vi] = (1.0 - damping) / n + damping * acc;
    });
    cm.ChargeWorkRead(g.num_edges());
    cm.ChargeWorkWrite(n);
    double delta = reduce_add<double>(
        n, [&](size_t v) { return std::fabs(next[v] - p[v]); });
    std::swap(p, next);
    ++result.iterations;
    result.final_delta = delta;
    if (delta < epsilon) break;
  }
  result.rank = std::move(p);
  return result;
}

/// A single PageRank iteration (the PageRank-Iter row of Figures 1 and 7).
template <typename GraphT>
PageRankResult PageRankIteration(const GraphT& g) {
  return PageRank(g, /*epsilon=*/0.0, /*max_iters=*/1);
}

}  // namespace sage
