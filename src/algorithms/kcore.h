// k-core decomposition (coreness of every vertex) via Julienne-style
// bucketed peeling (Section 4.3.4). Vertices are bucketed by induced
// degree; the minimum bucket is peeled, and each round counts its live
// neighbors' losses with the neighbor histogram: a relaxed fetch-and-add
// into one n-word counter array that lives for the whole run (or, for a
// frontier above m/20, a dense O(n + m) scan into the same array). The
// degrees live in the buckets: a live vertex's bucket is max(its remaining
// degree, k), so there is no degree array. The moved vertices are placed
// in their new buckets in one parallel pass, whose bucket(i) functor
// lowers the vertex's bucket by its count and zeroes the count. PSAM: O(m)
// work (each edge is gathered and counted O(1) times, each degree change
// placed once) and O(n) words of DRAM. The depth is not the paper's
// O(rho log n) whp (rho = peeling complexity): parts of a round run
// sequentially in its size. A vertex that loses d neighbors in a round is
// counted in d sequential steps on its counter, and the prefix sums over
// the placement's count matrix (up to k/8 entries for k moved vertices)
// and the extraction of a bucket are sequential passes too.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bucketing.h"
#include "core/histogram.h"
#include "core/vertex_subset.h"
#include "graph/types.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Result of the k-core computation.
struct KCoreResult {
  /// coreness[v] = largest k such that v belongs to the k-core.
  std::vector<uint32_t> coreness;
  /// Largest non-empty core (k_max).
  uint32_t max_core = 0;
  /// Number of peeling rounds executed.
  uint64_t rounds = 0;
};

/// Computes the coreness of every vertex.
template <typename GraphT>
KCoreResult KCore(const GraphT& g) {
  const vertex_id n = g.num_vertices();
  std::vector<uint8_t> peeled(n, 0);
  // The neighbor histogram's counters: zero between rounds.
  std::vector<uint32_t> lost(n, 0);
  nvram::TrackedAllocation lost_words(size_t{n} * sizeof(uint32_t));
  Buckets buckets(
      n, [&](vertex_id v) { return g.degree_uncharged(v); },
      BucketOrder::kIncreasing);

  KCoreResult result;
  result.coreness.assign(n, 0);
  uint32_t k = 0;
  for (;;) {
    auto bkt = buckets.NextBucket();
    if (bkt.id == kNullBucket) break;
    ++result.rounds;
    k = std::max(k, bkt.id);
    const auto& peel = bkt.vertices;
    parallel_for(0, peel.size(), [&](size_t i) {
      result.coreness[peel[i]] = k;
      peeled[peel[i]] = 1;
    });
    nvram::Cost().ChargeWorkWrite(2 * peel.size());
    // Count the live neighbors' losses, then apply each one as its vertex
    // is placed: its bucket before the batch is its degree (at least k),
    // and coreness is at least the current k.
    auto frontier = VertexSubset::Sparse(n, std::move(bkt.vertices));
    const auto moved = NeighborHistogram(
        g, frontier, [&](vertex_id u) { return peeled[u] == 0; }, lost);
    buckets.UpdateBuckets(
        moved.size(), [&](size_t i) { return moved[i]; },
        [&](size_t i) {
          const vertex_id u = moved[i];
          const uint32_t degree = buckets.BucketOf(u);
          const uint32_t cnt = std::exchange(lost[u], 0);
          return std::max(degree >= cnt ? degree - cnt : 0u, k);
        });
  }
  result.max_core = k;
  return result;
}

}  // namespace sage
