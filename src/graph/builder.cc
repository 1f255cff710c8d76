#include "graph/builder.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/random.h"
#include "graph/delta.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace sage {

namespace {

/// Sorts edges by (u, v) and removes exact duplicates, keeping the first
/// occurrence's weight (stable sort guarantees determinism).
std::vector<WeightedEdge> SortAndDedup(std::vector<WeightedEdge> edges,
                                       bool dedup) {
  parallel_sort_inplace(edges, [](const WeightedEdge& a,
                                  const WeightedEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  if (!dedup || edges.empty()) return edges;
  auto keep = pack_index<size_t>(edges.size(), [&](size_t i) {
    return i == 0 || edges[i].u != edges[i - 1].u ||
           edges[i].v != edges[i - 1].v;
  });
  return tabulate<WeightedEdge>(keep.size(),
                                [&](size_t i) { return edges[keep[i]]; });
}

}  // namespace

Result<Graph> GraphBuilder::Build(vertex_id n, std::vector<WeightedEdge> edges,
                                  const BuildOptions& options) {
  // Validate ids.
  std::atomic<bool> bad{false};
  parallel_for(0, edges.size(), [&](size_t i) {
    if (edges[i].u >= n || edges[i].v >= n) {
      bad.store(true, std::memory_order_relaxed);
    }
  });
  if (bad.load()) {
    return Status::InvalidArgument("edge references vertex id >= n");
  }

  if (options.remove_self_loops) {
    edges = filter(edges, [](const WeightedEdge& e) { return e.u != e.v; });
  }
  if (options.symmetrize) {
    size_t base = edges.size();
    edges.resize(2 * base);
    parallel_for(0, base, [&](size_t i) {
      edges[base + i] = WeightedEdge{edges[i].v, edges[i].u, edges[i].w};
    });
  }
  edges = SortAndDedup(std::move(edges), options.remove_duplicates);

  // Count per-vertex degrees; edges are sorted so boundaries give the counts,
  // but a shared atomic histogram is simpler and the builder is unmeasured.
  std::vector<std::atomic<edge_offset>> counts(n + 1);
  parallel_for(0, n + 1, [&](size_t i) {
    counts[i].store(0, std::memory_order_relaxed);
  });
  parallel_for(0, edges.size(), [&](size_t i) {
    counts[edges[i].u].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<edge_offset> offsets(n + 1);
  parallel_for(0, n + 1, [&](size_t i) {
    offsets[i] = counts[i].load(std::memory_order_relaxed);
  });
  offsets[n] = 0;
  // Exclusive scan over the first n entries; offsets[n] becomes the total.
  std::vector<edge_offset> degs(offsets.begin(), offsets.begin() + n);
  edge_offset total = scan_add_inplace(degs);
  parallel_for(0, n, [&](size_t i) { offsets[i] = degs[i]; });
  offsets[n] = total;

  std::vector<vertex_id> neighbors(edges.size());
  std::vector<weight_t> weights;
  if (options.keep_weights) weights.resize(edges.size());
  parallel_for(0, edges.size(), [&](size_t i) {
    neighbors[i] = edges[i].v;
    if (options.keep_weights) weights[i] = edges[i].w;
  });
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               options.symmetrize);
}

Graph GraphBuilder::FromEdges(vertex_id n, std::vector<WeightedEdge> edges) {
  BuildOptions opts;
  auto result = Build(n, std::move(edges), opts);
  return result.TakeValue();
}

Graph GraphBuilder::FromWeightedEdges(vertex_id n,
                                      std::vector<WeightedEdge> edges) {
  BuildOptions opts;
  opts.keep_weights = true;
  auto result = Build(n, std::move(edges), opts);
  return result.TakeValue();
}

Graph AddRandomWeights(const Graph& g, uint64_t seed) {
  // The raw spans below bypass a delta overlay; weight the merged view.
  // (Weights hash the undirected pair, so the overlay view's weights match
  // the compacted graph's bit for bit.)
  if (g.has_overlay()) return AddRandomWeights(FlattenOverlay(g), seed);
  vertex_id n = g.num_vertices();
  uint32_t max_w = 2;
  while ((1ull << max_w) < n) ++max_w;  // max_w = ceil(log2 n), at least 2
  Random rng(seed);
  const auto& offsets = g.raw_offsets();
  const auto& neighbors = g.raw_neighbors();
  std::vector<weight_t> weights(neighbors.size());
  // Hash the undirected pair (min, max) so both directions get equal weight.
  parallel_for(0, n, [&](size_t u) {
    for (edge_offset i = offsets[u]; i < offsets[u + 1]; ++i) {
      vertex_id v = neighbors[i];
      uint64_t lo = std::min<uint64_t>(u, v), hi = std::max<uint64_t>(u, v);
      weights[i] =
          1 + static_cast<weight_t>(rng.ith_rand(lo * n + hi) % (max_w - 1));
    }
  });
  // Only the weights are new: the view reads g's own offsets and neighbors.
  return Graph(std::make_shared<OverlayGraphStorage>(g.storage(), nullptr,
                                                     std::move(weights)),
               g.symmetric());
}

}  // namespace sage
