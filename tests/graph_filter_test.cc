// Tests for the graphFilter (Section 4.2): construction, packing semantics,
// block compaction, dirty bits, memory bounds, compressed-graph filters,
// and the never-write-NVRAM property.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_filter.h"
#include "graph/compressed_graph.h"
#include "graph/delta.h"
#include "graph/generators.h"

namespace sage {
namespace {

template <typename GraphT>
std::vector<vertex_id> Active(const GraphFilter<GraphT>& gf, vertex_id v) {
  std::vector<vertex_id> out(gf.degree_uncharged(v));
  size_t k = gf.ActiveNeighbors(v, out.data());
  out.resize(k);
  return out;
}

TEST(GraphFilter, StartsWithAllEdgesActive) {
  Graph g = RmatGraph(9, 5000, 1);
  GraphFilter<Graph> gf(g);
  EXPECT_EQ(gf.num_active_edges(), g.num_edges());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(gf.degree_uncharged(v), g.degree_uncharged(v));
    auto active = Active(gf, v);
    auto expect = g.NeighborsUncharged(v);
    ASSERT_EQ(active.size(), expect.size());
    for (size_t i = 0; i < active.size(); ++i) ASSERT_EQ(active[i], expect[i]);
  }
}

TEST(GraphFilter, PackVertexRemovesFailingEdges) {
  Graph g = CompleteGraph(50);
  GraphFilter<Graph> gf(g);
  // Keep only even neighbors of vertex 0.
  gf.PackVertex(0, [](vertex_id, vertex_id u) { return u % 2 == 0; });
  auto active = Active(gf, 0);
  EXPECT_EQ(gf.degree_uncharged(0), 24u);  // 2,4,...,48
  for (vertex_id u : active) EXPECT_EQ(u % 2, 0u);
  // Other vertices untouched.
  EXPECT_EQ(gf.degree_uncharged(1), 49u);
}

TEST(GraphFilter, RepeatedPacksCompose) {
  Graph g = CompleteGraph(64);
  GraphFilter<Graph> gf(g, 64);
  gf.PackVertex(0, [](vertex_id, vertex_id u) { return u >= 16; });
  gf.PackVertex(0, [](vertex_id, vertex_id u) { return u < 48; });
  auto active = Active(gf, 0);
  EXPECT_EQ(active.size(), 32u);
  for (vertex_id u : active) {
    EXPECT_GE(u, 16u);
    EXPECT_LT(u, 48u);
  }
}

TEST(GraphFilter, EmptyBlocksArePackedOut) {
  // Star center has high degree; delete big contiguous ranges so whole
  // blocks empty out and the block list compacts.
  Graph g = StarGraph(1 << 12);
  GraphFilter<Graph> gf(g, 64);
  gf.PackVertex(0, [](vertex_id, vertex_id u) { return u >= 2048; });
  auto active = Active(gf, 0);
  EXPECT_EQ(active.size(), 2048u);  // neighbors 2048..4095
  for (size_t i = 0; i < active.size(); ++i) {
    ASSERT_EQ(active[i], static_cast<vertex_id>(2048 + i));
  }
}

TEST(GraphFilter, FilterEdgesAppliesGlobally) {
  Graph g = RmatGraph(10, 20000, 2);
  GraphFilter<Graph> gf(g);
  // Orient edges: keep (u, v) iff u < v. Exactly half the directed slots.
  uint64_t remaining =
      gf.FilterEdges([](vertex_id v, vertex_id u) { return v < u; });
  EXPECT_EQ(remaining, g.num_edges() / 2);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    for (vertex_id u : Active(gf, v)) ASSERT_GT(u, v);
  }
}

TEST(GraphFilter, EdgeMapPackReturnsNewDegrees) {
  Graph g = CompleteGraph(20);
  GraphFilter<Graph> gf(g);
  auto subset = VertexSubset::Sparse(20, {0, 5, 7});
  auto degs = gf.EdgeMapPack(subset, [](vertex_id, vertex_id u) {
    return u < 10;
  });
  ASSERT_EQ(degs.size(), 3u);
  for (auto [v, d] : degs) {
    // Neighbors < 10, excluding self: 9 remain for v < 10.
    EXPECT_EQ(d, 9u) << "vertex " << v;
    EXPECT_EQ(gf.degree_uncharged(v), 9u);
  }
  EXPECT_EQ(gf.degree_uncharged(1), 19u);  // untouched
}

TEST(GraphFilter, DirtyBitsMarkTargetsOfDeletedEdges) {
  Graph g = PathGraph(5);  // 0-1-2-3-4
  GraphFilter<Graph> gf(g);
  gf.PackVertex(2, [](vertex_id, vertex_id) { return false; });  // drop all
  EXPECT_TRUE(gf.IsDirty(1));
  EXPECT_TRUE(gf.IsDirty(3));
  EXPECT_FALSE(gf.IsDirty(0));
  EXPECT_FALSE(gf.IsDirty(4));
  gf.ClearDirty();
  EXPECT_FALSE(gf.IsDirty(1));
}

TEST(GraphFilter, NeverWritesNvram) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(10, 20000, 7);
  cm.ResetCounters();
  GraphFilter<Graph> gf(g);
  gf.FilterEdges([](vertex_id v, vertex_id u) { return (u + v) % 3 != 0; });
  gf.FilterEdges([](vertex_id v, vertex_id u) { return u > v; });
  for (vertex_id v = 0; v < g.num_vertices(); v += 7) {
    std::vector<vertex_id> buf(gf.degree_uncharged(v));
    gf.ActiveNeighbors(v, buf.data());
  }
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_writes, 0u);
  EXPECT_GT(t.dram_writes, 0u);  // the filter itself lives in DRAM
}

TEST(GraphFilter, OverlaidListsChargeDramReads) {
  // Vertex 0's list lives in the delta overlay (DRAM); vertex 3's is base
  // CSR. Reading either through the filter charges the same words, but
  // only the base list is a graph (NVRAM) read.
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph base = CompleteGraph(8);
  std::vector<EdgeUpdate> updates = {EdgeUpdate::Remove(0, 1)};
  auto overlay = ApplyUpdateBatch(base, nullptr, updates);
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  Graph g = MakeOverlayGraph(base, overlay.ValueOrDie());
  GraphFilter<Graph> gf(g);
  auto read = [&](vertex_id v) {
    nvram::CostScope scope;
    EXPECT_EQ(Active(gf, v).size(), g.degree_uncharged(v));
    return scope.Delta();
  };
  nvram::CostTotals overlaid = read(0), plain = read(3);
  EXPECT_EQ(overlaid.nvram_reads, 0u);
  EXPECT_EQ(plain.nvram_reads, g.degree_uncharged(3));
  EXPECT_EQ(overlaid.dram_reads, plain.dram_reads + g.degree_uncharged(0));
}

TEST(GraphFilter, MemoryIsFractionOfGraph) {
  Graph g = UniformRandomGraph(2000, 60000, 3);
  GraphFilter<Graph> gf(g, 64);
  // Paper reports 4.6x-8.1x smaller than the uncompressed graph.
  EXPECT_LT(gf.MemoryBytes() * 4, g.SizeBytes());
}

TEST(GraphFilterCompressed, MatchesUncompressedFilterSemantics) {
  Graph g = RmatGraph(9, 8000, 21);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  GraphFilter<Graph> gf(g, 64);
  GraphFilter<CompressedGraph> gfc(cg);  // FB = compression block size
  auto pred = [](vertex_id v, vertex_id u) { return (u ^ v) % 5 != 0; };
  gf.FilterEdges(pred);
  gfc.FilterEdges(pred);
  EXPECT_EQ(gfc.num_active_edges(), gf.num_active_edges());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(Active(gfc, v), Active(gf, v)) << "vertex " << v;
  }
}

TEST(GraphFilterCompressed, RejectsMismatchedBlockSize) {
  Graph g = PathGraph(10);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 32);
  EXPECT_DEATH(GraphFilter<CompressedGraph> gf(cg, 64), "block size");
}

TEST(GraphFilter, DecodeCountersAdvance) {
  Graph g = CompleteGraph(100);
  GraphFilter<Graph> gf(g, 64);
  gf.ResetDecodeCounters();
  std::vector<vertex_id> buf(99);
  gf.ActiveNeighbors(0, buf.data());
  EXPECT_GT(gf.blocks_decoded(), 0u);
  EXPECT_EQ(gf.edges_decoded(), 99u);
}

class FilterBlockSizes : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FilterBlockSizes, PackingCorrectAcrossBlockSizes) {
  Graph g = UniformRandomGraph(600, 20000, GetParam());
  GraphFilter<Graph> gf(g, GetParam());
  auto pred = [](vertex_id v, vertex_id u) { return ((u * 7 + v) % 3) == 0; };
  gf.FilterEdges(pred);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    std::vector<vertex_id> expect;
    for (vertex_id u : g.NeighborsUncharged(v)) {
      if (pred(v, u)) expect.push_back(u);
    }
    ASSERT_EQ(Active(gf, v), expect) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FilterBlockSizes,
                         ::testing::Values(64, 128, 256));

}  // namespace
}  // namespace sage
