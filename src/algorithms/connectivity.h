// Connectivity and spanning forest via LDD + contraction (Section 4.3.2,
// Appendix C.2). One round of low-diameter decomposition with beta = O(1)
// leaves O(n) inter-cluster edges in expectation (Corollary 3.1 of [69]);
// those are contracted in DRAM with a concurrent union-find. PSAM: O(m)
// expected work, O(log^3 n) depth whp, O(n) words of DRAM.
#pragma once

#include <utility>
#include <vector>

#include "algorithms/ldd.h"
#include "algorithms/union_find.h"
#include "core/edge_map.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Options for the connectivity family.
struct ConnectivityOptions {
  /// LDD parameter; 0.2 performs best in practice (Section 5.3).
  double beta = 0.2;
  uint64_t seed = 1;
  EdgeMapOptions edge_map;
};

/// Connected-component labels: L[u] == L[v] iff u and v are connected.
/// Labels are cluster-center vertex ids.
template <typename GraphT>
std::vector<vertex_id> Connectivity(const GraphT& g,
                                    const ConnectivityOptions& opts =
                                        ConnectivityOptions{}) {
  const vertex_id n = g.num_vertices();
  LddResult ldd =
      LowDiameterDecomposition(g, opts.beta, opts.seed, opts.edge_map);
  // Contract: union clusters across inter-cluster edges. The union-find
  // lives in DRAM (O(n) words); the edge scan is read-only on the graph.
  AtomicUnionFind uf(n);
  parallel_for(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    vertex_id cv = ldd.cluster[v];
    g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
      vertex_id cu = ldd.cluster[u];
      if (cu != cv) uf.Unite(cu, cv);
    });
  });
  nvram::Cost().ChargeWorkWrite(n);
  return tabulate<vertex_id>(n, [&](size_t v) {
    return uf.Find(ldd.cluster[v]);
  });
}

/// Spanning forest: a maximal set of edges with no cycles. Combines the LDD
/// BFS-tree edges with one witness edge per successful inter-cluster union.
template <typename GraphT>
std::vector<std::pair<vertex_id, vertex_id>> SpanningForest(
    const GraphT& g,
    const ConnectivityOptions& opts = ConnectivityOptions{}) {
  const vertex_id n = g.num_vertices();
  LddResult ldd =
      LowDiameterDecomposition(g, opts.beta, opts.seed, opts.edge_map);
  // Tree edges inside clusters.
  auto tree_vertices = pack_index<vertex_id>(
      n, [&](size_t v) { return ldd.parent[v] != kNoVertex; });
  std::vector<std::pair<vertex_id, vertex_id>> edges(tree_vertices.size());
  parallel_for(0, tree_vertices.size(), [&](size_t i) {
    vertex_id v = tree_vertices[i];
    edges[i] = {ldd.parent[v], v};
  });
  // Inter-cluster witness edges: Unite returns true exactly once per merge.
  AtomicUnionFind uf(n);
  std::vector<std::vector<std::pair<vertex_id, vertex_id>>> local(
      Scheduler::kMaxShards);
  parallel_for(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    vertex_id cv = ldd.cluster[v];
    g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
      vertex_id cu = ldd.cluster[u];
      if (cu != cv && uf.Unite(cu, cv)) {
        local[shard_id()].push_back({v, u});
      }
    });
  });
  for (auto& l : local) {
    edges.insert(edges.end(), l.begin(), l.end());
  }
  nvram::Cost().ChargeWorkWrite(edges.size());
  return edges;
}

}  // namespace sage
