// Tests for the GBBS-style mutating baselines and the GridGraph-like
// semi-external engine: they must produce the same answers as Sage while
// exhibiting the cost signatures the paper attributes to them (graph
// writes for GBBS packing; block over-streaming for the grid engine).
#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/reference/sequential.h"
#include "algorithms/triangle_count.h"
#include "baselines/gbbs_algorithms.h"
#include "baselines/grid_engine.h"
#include "baselines/packed_graph.h"
#include "graph/generators.h"
#include "nvram/execution_context.h"
#include "parallel/scheduler.h"

namespace sage::baselines {
namespace {

TEST(PackedGraph, PackVertexCompactsInPlace) {
  Graph g = CompleteGraph(20);
  PackedGraph pg(g);
  pg.PackVertex(0, [](vertex_id, vertex_id u) { return u % 2 == 0; });
  auto nbrs = pg.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 9u);  // 2, 4, ..., 18
  for (size_t i = 0; i < nbrs.size(); ++i) {
    ASSERT_EQ(nbrs[i], static_cast<vertex_id>(2 * (i + 1)));
  }
}

TEST(PackedGraph, PackingChargesGraphWrites) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(9, 8000, 3);
  cm.ResetCounters();
  PackedGraph pg(g);
  pg.FilterEdges([](vertex_id v, vertex_id u) { return v < u; });
  EXPECT_GT(cm.Totals().nvram_writes, g.num_edges());  // copy + packing
}

TEST(GbbsBaselines, TriangleCountMatchesSage) {
  Graph g = RmatGraph(10, 20000, 7);
  EXPECT_EQ(GbbsTriangleCount(g), ref::CountTriangles(g));
}

TEST(GbbsBaselines, MaximalMatchingIsMaximal) {
  Graph g = RmatGraph(10, 15000, 9);
  auto matching = GbbsMaximalMatching(g, 3);
  EXPECT_TRUE(ref::IsMaximalMatching(g, matching));
}

TEST(GbbsBaselines, MaximalMatchingSameAtEveryWidth) {
  // Each candidate edge's priority is a hash of the seed, the round and
  // the edge, as in Sage's matching, so the matching and every charge are
  // the same at any width.
  Graph g = RmatGraph(12, 60000, 21);
  std::vector<std::pair<vertex_id, vertex_id>> matching_w1;
  std::vector<uint64_t> cost_w1;
  for (int width : {1, 2, 4, 8}) {
    SCOPED_TRACE(width);
    Scheduler::Reset(width);
    nvram::CostScope scope;
    auto matching = GbbsMaximalMatching(g, 5);
    const nvram::CostTotals t = scope.Delta();
    const std::vector<uint64_t> cost{
        t.dram_reads,           t.dram_writes,
        t.nvram_reads,          t.nvram_writes,
        t.nvram_prefetch_reads, t.remote_nvram_accesses,
        t.memory_mode_hits,     t.memory_mode_misses};
    ASSERT_TRUE(ref::IsMaximalMatching(g, matching));
    std::sort(matching.begin(), matching.end());
    if (width == 1) {
      matching_w1 = std::move(matching);
      cost_w1 = cost;
      continue;
    }
    EXPECT_EQ(matching, matching_w1);
    EXPECT_EQ(cost, cost_w1);
  }
  Scheduler::Reset(0);
}

TEST(GbbsBaselines, WritesNvramWhereSageDoesNot) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(9, 10000, 5);
  cm.ResetCounters();
  (void)TriangleCount(g);
  EXPECT_EQ(cm.Totals().nvram_writes, 0u);
  cm.ResetCounters();
  (void)GbbsTriangleCount(g);
  EXPECT_GT(cm.Totals().nvram_writes, 0u);
}

TEST(GridEngine, BfsLevelsMatchReference) {
  Graph g = RmatGraph(9, 6000, 11);
  GridEngine grid(g, 8);
  EXPECT_EQ(grid.Bfs(0), ref::BfsLevels(g, 0));
}

TEST(GridEngine, ConnectivityMatchesReferencePartition) {
  Graph g = DisjointCliques(12, 6);
  GridEngine grid(g, 4);
  auto got = grid.Connectivity();
  auto expect = ref::Components(g);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(got[v] == got[v / 6 * 6], expect[v] == expect[v / 6 * 6]);
  }
}

TEST(GridEngine, PageRankIterationMatchesReference) {
  Graph g = RmatGraph(8, 3000, 13);
  GridEngine grid(g, 4);
  const vertex_id n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / n);
  std::vector<uint32_t> deg(n);
  for (vertex_id v = 0; v < n; ++v) deg[v] = g.degree_uncharged(v);
  auto got = grid.PageRankIteration(rank, deg);
  auto expect = ref::PageRank(g, 1);
  for (vertex_id v = 0; v < n; ++v) ASSERT_NEAR(got[v], expect[v], 1e-12);
}

TEST(GridEngine, StreamsMoreThanSageReads) {
  // The engine re-streams whole blocks per superstep: its slow-tier traffic
  // must exceed a single pass over the edges for multi-round algorithms.
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = GridGraph(40, 40);  // high diameter => many supersteps
  GridEngine grid(g, 8);
  cm.ResetCounters();
  (void)grid.Bfs(0);
  uint64_t grid_reads = cm.Totals().nvram_reads;
  EXPECT_GT(grid_reads, 4 * g.num_edges());
}

}  // namespace
}  // namespace sage::baselines
