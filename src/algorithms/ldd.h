// Low-diameter decomposition of Miller-Peng-Xu [70] (Section 4.3.2).
// Vertices receive exponentially-distributed start times with parameter
// beta; a ball-growing (BFS) process from staggered centers partitions V
// into clusters of diameter O(log n / beta) with at most O(beta * m)
// inter-cluster edges in expectation. PSAM: O(m) expected work, O(log^2 n)
// depth whp, O(n) words of DRAM.
//
// Ties within a round are broken by the fractional part of the center's
// start time (a write-min on a (fraction, center) key), matching the MPX
// analysis: without fractional tie-breaking the integer-rounded process
// cuts a constant factor more edges. A useful side effect is that the
// decomposition is deterministic for a fixed seed, independent of thread
// count and scheduling.
#pragma once

#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "algorithms/bellman_ford.h"  // internal::WriteMin
#include "common/random.h"
#include "core/edge_map.h"
#include "core/vertex_subset.h"
#include "graph/types.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace sage {

/// Result of a low-diameter decomposition.
struct LddResult {
  /// cluster[v] = id (a vertex id) of v's cluster center.
  std::vector<vertex_id> cluster;
  /// parent[v] = BFS-tree parent within the cluster (kNoVertex for
  /// centers).
  std::vector<vertex_id> parent;
  /// Round in which v was claimed (cluster-BFS level + center start).
  std::vector<uint32_t> round;
  /// Number of clusters.
  size_t num_clusters = 0;

  /// Counts edges whose endpoints lie in different clusters (directed
  /// slots). Uncharged; a diagnostic for tests and benchmarks.
  template <typename GraphT>
  uint64_t CountInterClusterEdges(const GraphT& g) const {
    return reduce_add<uint64_t>(cluster.size(), [&](size_t vi) {
      vertex_id v = static_cast<vertex_id>(vi);
      uint64_t c = 0;
      g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
        c += cluster[u] != cluster[v] ? 1 : 0;
      });
      return c;
    });
  }
};

namespace internal {

/// Claim functor: unclaimed neighbors receive write-min bids keyed by
/// (center fraction, center id); the round tag de-duplicates the output.
struct LddClaimF {
  const std::atomic<vertex_id>* cluster;
  std::atomic<uint64_t>* best;
  std::atomic<uint8_t>* tagged;
  const uint32_t* frac_bits;

  uint64_t KeyFor(vertex_id center) const {
    return (uint64_t{frac_bits[center]} << 32) | uint64_t{center};
  }
  bool update(vertex_id s, vertex_id d, weight_t w) {
    return updateAtomic(s, d, w);
  }
  bool updateAtomic(vertex_id s, vertex_id d, weight_t) {
    vertex_id c = cluster[s].load(std::memory_order_relaxed);
    WriteMin(&best[d], KeyFor(c));
    uint8_t expected = 0;
    return tagged[d].compare_exchange_strong(expected, 1,
                                             std::memory_order_relaxed);
  }
  bool cond(vertex_id d) {
    return cluster[d].load(std::memory_order_relaxed) == kNoVertex;
  }
};

}  // namespace internal

/// Computes a (O(beta), O(log n / beta)) decomposition. Deterministic for a
/// fixed seed.
template <typename GraphT>
LddResult LowDiameterDecomposition(const GraphT& g, double beta,
                                   uint64_t seed,
                                   const EdgeMapOptions& opts =
                                       EdgeMapOptions{}) {
  SAGE_CHECK(beta > 0.0 && beta <= 1.0);
  const vertex_id n = g.num_vertices();
  Random rng(seed);

  // Exponential shifts delta_v ~ Exp(beta). In the MPX process a vertex's
  // ball starts growing at time (delta_max - delta_v): the largest shift
  // starts first, and most vertices are claimed before their own start.
  // Center v's arrival at a vertex w is (delta_max - delta_v) + d(v, w);
  // comparing (integer round, fraction of the center's start) therefore
  // compares true continuous arrival times exactly.
  std::vector<double> delta(n);
  parallel_for(0, n, [&](size_t v) {
    double u = (static_cast<double>(rng.ith_rand(v) >> 11) + 1.0) *
               (1.0 / 9007199254740993.0);  // uniform in (0, 1]
    delta[v] = -std::log(u) / beta;
  });
  double delta_max = reduce(
      n, [&](size_t v) { return delta[v]; },
      [](double a, double b) { return a > b ? a : b; }, 0.0);
  const uint32_t max_round = static_cast<uint32_t>(delta_max) + 2;
  std::vector<uint32_t> start(n);
  std::vector<uint32_t> frac_bits(n);
  parallel_for(0, n, [&](size_t v) {
    double s = delta_max - delta[v];
    start[v] = static_cast<uint32_t>(s);
    frac_bits[v] = static_cast<uint32_t>((s - start[v]) * 4294967295.0);
  });
  // Bucket vertices by start round for O(1) center injection per round.
  auto [order, round_offsets] = counting_sort(start, max_round);

  std::vector<std::atomic<vertex_id>> cluster(n);
  std::vector<std::atomic<uint64_t>> best(n);
  std::vector<std::atomic<uint8_t>> tagged(n);
  std::vector<vertex_id> parent(n, kNoVertex);
  // Claim rounds are read during phase C while same-round entries are being
  // written; atomics with a "not claimed" sentinel keep that race benign.
  std::vector<std::atomic<uint32_t>> claim_round(n);
  constexpr uint32_t kUnclaimed = std::numeric_limits<uint32_t>::max();
  parallel_for(0, n, [&](size_t v) {
    cluster[v].store(kNoVertex, std::memory_order_relaxed);
    best[v].store(~0ULL, std::memory_order_relaxed);
    tagged[v].store(0, std::memory_order_relaxed);
    claim_round[v].store(kUnclaimed, std::memory_order_relaxed);
  });

  internal::LddClaimF claim{cluster.data(), best.data(), tagged.data(),
                            frac_bits.data()};
  auto frontier = VertexSubset::Empty(n);
  for (uint32_t round = 0;; ++round) {
    // Phase A: expansion bids from the previous round's frontier.
    auto expanded = frontier.IsEmpty() ? VertexSubset::Empty(n)
                                       : EdgeMap(g, frontier, claim, opts);
    // Phase B: center bids - unclaimed vertices whose start time arrived
    // compete with this round's expansion bids via the same write-min.
    std::vector<vertex_id> centers;
    if (round < max_round) {
      for (size_t i = round_offsets[round]; i < round_offsets[round + 1];
           ++i) {
        vertex_id v = static_cast<vertex_id>(order[i]);
        if (cluster[v].load(std::memory_order_relaxed) != kNoVertex) {
          continue;
        }
        internal::WriteMin(&best[v], claim.KeyFor(v));
        uint8_t expected = 0;
        if (tagged[v].compare_exchange_strong(expected, 1,
                                              std::memory_order_relaxed)) {
          centers.push_back(v);
        }
      }
    }
    if (expanded.IsEmpty() && centers.empty()) {
      if (round >= max_round) break;
      frontier = VertexSubset::Empty(n);
      continue;
    }
    // The claimed vertices are the next frontier, which keeps the degree
    // sum a dense expansion round handed over.
    auto next =
        internal::RoundHandover::Extend(g, std::move(expanded), centers);
    const std::vector<vertex_id>& claimed = next.ids();
    // Phase C: finalize winners; set cluster, level, and a tree parent.
    parallel_for(0, claimed.size(), [&](size_t i) {
      vertex_id v = claimed[i];
      uint64_t key = best[v].load(std::memory_order_relaxed);
      vertex_id c = static_cast<vertex_id>(key & 0xFFFFFFFFULL);
      cluster[v].store(c, std::memory_order_relaxed);
      claim_round[v].store(round, std::memory_order_relaxed);
      if (c == v) return;  // center: no parent
      // Any neighbor already in cluster c from an earlier round is a valid
      // BFS-tree parent (the winning relay is one such neighbor).
      g.MapNeighborsWhile(v, [&](vertex_id, vertex_id u, weight_t) {
        vertex_id cu = cluster[u].load(std::memory_order_relaxed);
        if (cu == c &&
            claim_round[u].load(std::memory_order_relaxed) < round) {
          parent[v] = u;
          return false;
        }
        return true;
      });
      SAGE_DCHECK(parent[v] != kNoVertex);
    });
    nvram::Cost().ChargeWorkWrite(2 * claimed.size());
    frontier = std::move(next);
  }

  LddResult result;
  result.cluster = tabulate<vertex_id>(n, [&](size_t v) {
    return cluster[v].load(std::memory_order_relaxed);
  });
  result.parent = std::move(parent);
  result.round = tabulate<uint32_t>(n, [&](size_t v) {
    return claim_round[v].load(std::memory_order_relaxed);
  });
  result.num_clusters = reduce_add<size_t>(n, [&](size_t v) {
    return result.cluster[v] == static_cast<vertex_id>(v) ? 1 : 0;
  });
  return result;
}

}  // namespace sage
