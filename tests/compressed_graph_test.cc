// Tests for the byte-compressed CSR: round-trip fidelity against the
// uncompressed graph across block sizes, weighted encoding, block decode,
// and the compression-reduces-NVRAM-reads property the paper relies on.
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/compressed_graph.h"
#include "graph/generators.h"
#include "nvram/cost_model.h"

namespace sage {
namespace {

/// Collects (neighbor, weight) pairs of v via MapNeighbors.
template <typename GraphT>
std::vector<std::pair<vertex_id, weight_t>> NeighborList(const GraphT& g,
                                                         vertex_id v) {
  std::vector<std::pair<vertex_id, weight_t>> out;
  g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t w) {
    out.emplace_back(u, w);
  });
  return out;
}

class BlockSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BlockSizeSweep, RoundTripsUnweightedGraph) {
  Graph g = RmatGraph(10, 20000, 11);
  CompressedGraph cg = CompressedGraph::FromGraph(g, GetParam());
  ASSERT_EQ(cg.num_vertices(), g.num_vertices());
  ASSERT_EQ(cg.num_edges(), g.num_edges());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cg.degree_uncharged(v), g.degree_uncharged(v));
    ASSERT_EQ(NeighborList(cg, v), NeighborList(g, v)) << "vertex " << v;
  }
}

TEST_P(BlockSizeSweep, RoundTripsWeightedGraph) {
  Graph g = AddRandomWeights(UniformRandomGraph(800, 6000, 5), 3);
  CompressedGraph cg = CompressedGraph::FromGraph(g, GetParam());
  ASSERT_TRUE(cg.weighted());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(NeighborList(cg, v), NeighborList(g, v)) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweep,
                         ::testing::Values(1, 2, 8, 64, 128, 256));

TEST(CompressedGraph, BlockDecodeMatchesBlocking) {
  Graph g = RmatGraph(9, 8000, 2);
  const uint32_t fb = 16;
  CompressedGraph cg = CompressedGraph::FromGraph(g, fb);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    vertex_id d = cg.degree_uncharged(v);
    uint64_t nb = d == 0 ? 0 : cg.num_blocks(v);
    uint64_t total = 0;
    std::vector<vertex_id> all;
    for (uint64_t b = 0; b < nb; ++b) {
      vertex_id nbrs[CompressedGraph::kMaxBlockSize];
      uint32_t k = cg.DecodeBlock(v, b, nbrs, nullptr);
      ASSERT_EQ(k, cg.block_degree(v, b));
      for (uint32_t i = 0; i < k; ++i) all.push_back(nbrs[i]);
      total += k;
    }
    ASSERT_EQ(total, d);
    // Blocks decode the sorted adjacency list in order.
    auto expect = g.NeighborsUncharged(v);
    ASSERT_EQ(all.size(), expect.size());
    for (size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], expect[i]);
  }
}

TEST(CompressedGraph, CompressesRealisticGraphs) {
  // Delta codes on sorted lists of a power-law graph should beat 4 bytes
  // per edge by a wide margin.
  Graph g = RmatGraph(12, 80000, 13);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  EXPECT_LT(cg.SizeBytes(), g.SizeBytes());
}

TEST(CompressedGraph, ChargesFewerNvramWordsThanUncompressed) {
  Graph g = RmatGraph(12, 80000, 17);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);

  cm.ResetCounters();
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    g.MapNeighbors(v, [](vertex_id, vertex_id, weight_t) {});
  }
  uint64_t uncompressed_reads = cm.Totals().nvram_reads;

  cm.ResetCounters();
  for (vertex_id v = 0; v < cg.num_vertices(); ++v) {
    cg.MapNeighbors(v, [](vertex_id, vertex_id, weight_t) {});
  }
  uint64_t compressed_reads = cm.Totals().nvram_reads;
  EXPECT_LT(compressed_reads, uncompressed_reads);
}

TEST(CompressedGraph, ReduceNeighborsSums) {
  Graph g = StarGraph(100);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 8);
  uint64_t sum = cg.ReduceNeighbors<uint64_t>(
      0, [](vertex_id, vertex_id v, weight_t) { return uint64_t{v}; },
      [](uint64_t a, uint64_t b) { return a + b; }, 0);
  EXPECT_EQ(sum, 99u * 100u / 2);
}

TEST(CompressedGraph, HandlesIsolatedVertices) {
  // Vertex 2 is isolated (self loop removed).
  Graph g = GraphBuilder::FromEdges(4, {{0, 1, 1}, {2, 2, 1}, {1, 3, 1}});
  CompressedGraph cg = CompressedGraph::FromGraph(g, 4);
  EXPECT_EQ(cg.degree_uncharged(2), 0u);
  int count = 0;
  cg.MapNeighbors(2, [&](vertex_id, vertex_id, weight_t) { ++count; });
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace sage
