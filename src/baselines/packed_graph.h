// GBBS-style mutable graph baseline: filtering is performed by packing
// adjacency lists *in place*, in the graph region. On NVRAM this is exactly
// what Sage's graphFilter avoids - every packed word is an omega-cost NVRAM
// write (plus wear). Used by benchmark baselines (GBBS-DRAM /
// GBBS-NVRAM-libvmmalloc / GBBS-MemMode in Figures 1 and 7) to contrast
// with the filter's write-free discipline.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage::baselines {

/// Mutable CSR copy whose edge packing charges graph-region writes.
class PackedGraph {
 public:
  /// Copies g's adjacency structure. The copy itself charges graph writes
  /// (GBBS must materialize its mutable graph in the big memory).
  explicit PackedGraph(const Graph& g)
      : offsets_(g.raw_offsets().begin(), g.raw_offsets().end()),
        neighbors_(g.raw_neighbors().begin(), g.raw_neighbors().end()),
        degree_(g.num_vertices()) {
    parallel_for(0, degree_.size(), [&](size_t v) {
      degree_[v] = static_cast<vertex_id>(offsets_[v + 1] - offsets_[v]);
    });
    nvram::Cost().ChargeGraphWrite(neighbors_.size());
  }

  vertex_id num_vertices() const {
    return static_cast<vertex_id>(degree_.size());
  }

  /// Current (packed) degree of v.
  vertex_id degree(vertex_id v) const {
    nvram::Cost().ChargeGraphRead(1, offsets_[v]);
    return degree_[v];
  }
  vertex_id degree_uncharged(vertex_id v) const { return degree_[v]; }

  /// Total live edges.
  uint64_t num_edges() const {
    return reduce_add<uint64_t>(degree_.size(),
                                [&](size_t v) { return degree_[v]; });
  }

  /// Applies f(v, u) over v's live edges; charges graph reads.
  template <typename F>
  void MapNeighbors(vertex_id v, const F& f) const {
    edge_offset lo = offsets_[v];
    nvram::Cost().ChargeGraphRead(1 + degree_[v], lo);
    for (vertex_id i = 0; i < degree_[v]; ++i) f(v, neighbors_[lo + i]);
  }

  /// Live neighbors of v (sorted; packing is order-preserving).
  std::span<const vertex_id> Neighbors(vertex_id v) const {
    edge_offset lo = offsets_[v];
    nvram::Cost().ChargeGraphRead(1 + degree_[v], lo);
    return {neighbors_.data() + lo, static_cast<size_t>(degree_[v])};
  }

  /// Removes v's edges failing pred by compacting the adjacency list in
  /// place - the GBBS filtering step. Every surviving word is rewritten:
  /// an NVRAM write under NVRAM policies.
  template <typename Pred>
  void PackVertex(vertex_id v, const Pred& pred) {
    edge_offset lo = offsets_[v];
    vertex_id kept = 0;
    for (vertex_id i = 0; i < degree_[v]; ++i) {
      vertex_id u = neighbors_[lo + i];
      if (pred(v, u)) neighbors_[lo + kept++] = u;
    }
    auto& cm = nvram::Cost();
    cm.ChargeGraphRead(degree_[v], lo);
    cm.ChargeGraphWrite(kept + 1, lo);  // compacted words + degree word
    degree_[v] = kept;
  }

  /// Packs all vertices in parallel; returns remaining edges.
  template <typename Pred>
  uint64_t FilterEdges(const Pred& pred) {
    parallel_for(0, degree_.size(), [&](size_t v) {
      PackVertex(static_cast<vertex_id>(v), pred);
    });
    return num_edges();
  }

 private:
  std::vector<edge_offset> offsets_;
  std::vector<vertex_id> neighbors_;
  std::vector<vertex_id> degree_;
};

}  // namespace sage::baselines
