// k-core decomposition (coreness of every vertex) via Julienne-style
// bucketed peeling (Section 4.3.4). Vertices are bucketed by induced
// degree; the minimum bucket is peeled, and neighbor degree decrements are
// aggregated with the histogram primitive (a sparse semisort or a dense
// O(m) scan, chosen by frontier size) instead of fetch-and-add, then moved
// to their new buckets in one parallel placement. PSAM: O(m) expected work
// (each edge is gathered and counted O(1) times in expectation, each
// degree change placed once) and O(n) words of DRAM. The depth is not the
// paper's O(rho log n) whp (rho = peeling complexity): parts of a round run
// sequentially in its size. One task counts each semisort bucket, and all
// copies of a key land in the same bucket, so a vertex that loses d
// neighbors in a round is counted in d sequential steps. The prefix sums
// over the partitions' count matrices (up to k/8 entries for k gathered
// keys) and the extraction of a bucket are sequential passes too.
#pragma once

#include <vector>

#include "core/bucketing.h"
#include "core/histogram.h"
#include "core/vertex_subset.h"
#include "graph/types.h"
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
  std::vector<uint32_t> degree(n);
  parallel_for(0, n, [&](size_t v) {
    degree[v] = g.degree_uncharged(static_cast<vertex_id>(v));
  });
  std::vector<uint8_t> peeled(n, 0);
  Buckets buckets(
      n, [&](vertex_id v) { return degree[v]; }, BucketOrder::kIncreasing);

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
    // Aggregate degree decrements for live neighbors of the peeled set.
    auto frontier = VertexSubset::Sparse(n, std::vector<vertex_id>(peel));
    auto hist = NeighborHistogram(
        g, frontier, [&](vertex_id u) { return peeled[u] == 0; });
    std::vector<std::pair<vertex_id, bucket_id>> updates(hist.size());
    parallel_for(0, hist.size(), [&](size_t i) {
      auto [u, cnt] = hist[i];
      uint32_t nd = degree[u] >= cnt ? degree[u] - cnt : 0;
      nd = std::max(nd, k);  // coreness is at least the current k
      degree[u] = nd;
      updates[i] = {u, nd};
    });
    buckets.UpdateBuckets(updates);
  }
  result.max_core = k;
  return result;
}

}  // namespace sage
