// Construction of CSR graphs from edge lists: sorting, deduplication,
// self-loop removal, and optional symmetrization. Building happens before
// the measured region of every experiment, so builder code does not charge
// the cost model.
#pragma once

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace sage {

/// Options controlling GraphBuilder::Build.
struct BuildOptions {
  /// Add the reverse of every edge (producing an undirected graph).
  bool symmetrize = true;
  /// Drop (u, u) edges.
  bool remove_self_loops = true;
  /// Drop duplicate (u, v) pairs, keeping the first weight.
  bool remove_duplicates = true;
  /// Keep the weight array (otherwise build an unweighted graph).
  bool keep_weights = false;
};

/// Builds CSR graphs from edge lists.
class GraphBuilder {
 public:
  /// Builds a graph on `n` vertices from `edges`. Edges referencing vertices
  /// >= n are rejected. The input vector is consumed.
  static Result<Graph> Build(vertex_id n, std::vector<WeightedEdge> edges,
                             const BuildOptions& options = BuildOptions{});

  /// Convenience: symmetric unweighted graph from pairs.
  static Graph FromEdges(vertex_id n, std::vector<WeightedEdge> edges);

  /// Convenience: symmetric weighted graph from weighted edges.
  static Graph FromWeightedEdges(vertex_id n, std::vector<WeightedEdge> edges);
};

/// Returns `g` with uniformly random integral weights in
/// [1, max(2, ceil(log2 n))), as in the paper's weighted experiments.
/// Each weight is a hash of (min(u, v), max(u, v), seed), so symmetric
/// edges (u,v)/(v,u) receive the same weight, and an updated epoch's view
/// weighs every edge as its compacted graph would. The result shares g's
/// offsets and neighbors (a mapped image stays NVRAM-resident) and holds
/// only weights, in DRAM: the base image's array, built once per (image,
/// seed) and shared by every view over the image
/// (GraphStorage::SynthesizedWeights), plus, when g has a delta overlay,
/// weighted copies of its overlaid lists (WeighOverlay, graph/delta.h).
Graph AddRandomWeights(const Graph& g, uint64_t seed);

}  // namespace sage
