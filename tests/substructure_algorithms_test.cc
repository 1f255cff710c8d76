// Tests for the substructure and eigenvector families: k-core, approximate
// densest subgraph, triangle counting, PageRank.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/densest_subgraph.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference/sequential.h"
#include "algorithms/triangle_count.h"
#include "graph/builder.h"
#include "graph/compressed_graph.h"
#include "graph/generators.h"
#include "nvram/execution_context.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

struct SubCase {
  const char* name;
  Graph (*make)();
};

Graph SubRmat() { return RmatGraph(10, 20000, 3); }
Graph SubUniform() { return UniformRandomGraph(2000, 15000, 5); }
Graph SubGrid() { return GridGraph(25, 30); }
Graph SubComplete() { return CompleteGraph(50); }
Graph SubCliques() { return DisjointCliques(25, 8); }
Graph SubStar() { return StarGraph(1500); }
// Coreness above the 128 open buckets: peeling refills from overflow.
Graph SubRmatDense() { return RmatGraph(10, 400'000, 1); }

class SubstructureGraphs : public ::testing::TestWithParam<SubCase> {};

TEST_P(SubstructureGraphs, CorenessMatchesSequentialPeeling) {
  Graph g = GetParam().make();
  auto result = KCore(g);
  auto expect = ref::Coreness(g);
  ASSERT_EQ(result.coreness.size(), expect.size());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(result.coreness[v], expect[v]) << "vertex " << v;
  }
  EXPECT_EQ(result.max_core,
            *std::max_element(expect.begin(), expect.end()));
}

TEST_P(SubstructureGraphs, TriangleCountMatchesReference) {
  Graph g = GetParam().make();
  EXPECT_EQ(TriangleCount(g).triangles, ref::CountTriangles(g));
}

TEST_P(SubstructureGraphs, DensestSubgraphApproximationHolds) {
  Graph g = GetParam().make();
  auto result = ApproxDensestSubgraph(g, 0.001);
  double greedy = ref::GreedyDensestSubgraphDensity(g);
  // Parallel peeling is a 2(1+eps) approximation of OPT >= greedy result.
  EXPECT_GE(result.density, greedy / (2.0 * 1.01) - 1e-9);
  // Reported density matches the actual density of the returned members.
  std::vector<uint8_t> in(g.num_vertices(), 0);
  for (vertex_id v : result.members) in[v] = 1;
  uint64_t internal = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (!in[v]) continue;
    for (vertex_id u : g.NeighborsUncharged(v)) internal += in[u] ? 1 : 0;
  }
  ASSERT_FALSE(result.members.empty());
  double actual = static_cast<double>(internal) / 2.0 /
                  static_cast<double>(result.members.size());
  EXPECT_NEAR(actual, result.density, 1e-9);
}

/// The eight PSAM counters of `t`, for whole-record comparison.
std::vector<uint64_t> Counters(const nvram::CostTotals& t) {
  return {t.dram_reads,           t.dram_writes,
          t.nvram_reads,          t.nvram_writes,
          t.nvram_prefetch_reads, t.remote_nvram_accesses,
          t.memory_mode_hits,     t.memory_mode_misses};
}

TEST_P(SubstructureGraphs, PeelingOutputsAndCountersDoNotDependOnWidth) {
  // Both peeling kernels count neighbor losses with fetch-and-add; the
  // outputs and every charge are functions of each round's sets, so every
  // width gives the width-1 run's results and counters.
  Graph g = GetParam().make();
  KCoreResult kcore_w1;
  DensestSubgraphResult densest_w1;
  std::vector<uint64_t> kcore_cost_w1, densest_cost_w1;
  for (int width : {1, 2, 4, 8}) {
    SCOPED_TRACE(width);
    Scheduler::Reset(width);
    nvram::CostScope kcore_scope;
    KCoreResult kcore = KCore(g);
    const auto kcore_cost = Counters(kcore_scope.Delta());
    nvram::CostScope densest_scope;
    DensestSubgraphResult densest = ApproxDensestSubgraph(g, 0.001);
    const auto densest_cost = Counters(densest_scope.Delta());
    if (width == 1) {
      kcore_w1 = std::move(kcore);
      densest_w1 = std::move(densest);
      kcore_cost_w1 = kcore_cost;
      densest_cost_w1 = densest_cost;
      continue;
    }
    EXPECT_EQ(kcore.coreness, kcore_w1.coreness);
    EXPECT_EQ(kcore.rounds, kcore_w1.rounds);
    EXPECT_EQ(kcore.max_core, kcore_w1.max_core);
    EXPECT_EQ(kcore_cost, kcore_cost_w1);
    EXPECT_EQ(densest.members, densest_w1.members);
    EXPECT_EQ(densest.density, densest_w1.density);
    EXPECT_EQ(densest.rounds, densest_w1.rounds);
    EXPECT_EQ(densest_cost, densest_cost_w1);
  }
  Scheduler::Reset(0);
}

TEST_P(SubstructureGraphs, PageRankMatchesSequentialPowerIteration) {
  Graph g = GetParam().make();
  auto result = PageRank(g, /*epsilon=*/0.0, /*max_iters=*/10);
  auto expect = ref::PageRank(g, 10);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(result.rank[v], expect[v], 1e-10) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, SubstructureGraphs,
    ::testing::Values(SubCase{"rmat", SubRmat},
                      SubCase{"uniform", SubUniform},
                      SubCase{"grid", SubGrid},
                      SubCase{"complete", SubComplete},
                      SubCase{"cliques", SubCliques},
                      SubCase{"star", SubStar},
                      SubCase{"rmat_dense", SubRmatDense}),
    [](const auto& tpinfo) { return tpinfo.param.name; });

TEST(KCore, CliqueCorenessIsSizeMinusOne) {
  Graph g = DisjointCliques(10, 9);
  auto result = KCore(g);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(result.coreness[v], 8u);
  }
  EXPECT_EQ(result.max_core, 8u);
}

TEST(TriangleCount, KnownCounts) {
  EXPECT_EQ(TriangleCount(CompleteGraph(10)).triangles, 120u);  // C(10,3)
  EXPECT_EQ(TriangleCount(CycleGraph(10)).triangles, 0u);
  EXPECT_EQ(TriangleCount(StarGraph(100)).triangles, 0u);
  EXPECT_EQ(TriangleCount(GridGraph(8, 8)).triangles, 0u);
}

TEST(TriangleCount, CompressedGraphMatchesUncompressed) {
  Graph g = RmatGraph(10, 25000, 9);
  uint64_t expect = ref::CountTriangles(g);
  EXPECT_EQ(TriangleCount(g).triangles, expect);
  for (uint32_t fb : {64u, 128u, 256u}) {
    CompressedGraph cg = CompressedGraph::FromGraph(g, fb);
    ASSERT_EQ(TriangleCount(cg).triangles, expect) << "FB=" << fb;
  }
}

TEST(TriangleCount, DecodeWorkGrowsWithBlockSize) {
  // Table 4's tradeoff: larger filter blocks decode more edges per active
  // edge fetched, so total decode work grows with F_B while intersection
  // work stays fixed.
  Graph g = RmatGraph(11, 60000, 17);
  CompressedGraph cg64 = CompressedGraph::FromGraph(g, 64);
  CompressedGraph cg256 = CompressedGraph::FromGraph(g, 256);
  auto r64 = TriangleCount(cg64);
  auto r256 = TriangleCount(cg256);
  EXPECT_EQ(r64.triangles, r256.triangles);
  EXPECT_EQ(r64.intersection_work, r256.intersection_work);
  EXPECT_GT(r256.edges_decoded, r64.edges_decoded);
}

TEST(DensestSubgraph, CliquePlusNoiseFindsClique) {
  // A 20-clique embedded in a sparse random graph dominates the density.
  std::vector<WeightedEdge> edges;
  for (vertex_id i = 0; i < 20; ++i) {
    for (vertex_id j = i + 1; j < 20; ++j) edges.push_back({i, j, 1});
  }
  Rng rng(5);
  for (int e = 0; e < 800; ++e) {
    vertex_id u = static_cast<vertex_id>(rng.Next(1000));
    vertex_id v = static_cast<vertex_id>(rng.Next(1000));
    edges.push_back({u, v, 1});
  }
  Graph g = GraphBuilder::FromEdges(1000, std::move(edges));
  auto result = ApproxDensestSubgraph(g, 0.001);
  // Clique density is 19/2 = 9.5; the approximation must be at least half.
  EXPECT_GE(result.density, 9.5 / 2.02);
}

TEST(PageRank, SumsToOneAndConverges) {
  Graph g = RmatGraph(10, 20000, 7);
  auto result = PageRank(g, 1e-10, 200);
  double total = 0;
  for (double r : result.rank) total += r;
  // Mass is conserved up to dangling-vertex leakage; with symmetrized
  // graphs only isolated vertices dangle.
  auto isolated = reduce_add<uint64_t>(g.num_vertices(), [&](size_t v) {
    return g.degree_uncharged(static_cast<vertex_id>(v)) == 0 ? 1 : 0;
  });
  if (isolated == 0) {
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
  EXPECT_LT(result.final_delta, 1e-10);
  EXPECT_GT(result.iterations, 1u);
}

TEST(PageRank, StarConcentratesOnCenter) {
  Graph g = StarGraph(101);
  auto result = PageRank(g, 1e-12, 300);
  for (vertex_id v = 1; v < 101; ++v) {
    ASSERT_GT(result.rank[0], result.rank[v]);
    ASSERT_NEAR(result.rank[v], result.rank[1], 1e-12);
  }
}

TEST(PageRankIteration, IsExactlyOneIteration) {
  Graph g = RmatGraph(9, 8000, 3);
  auto one = PageRankIteration(g);
  EXPECT_EQ(one.iterations, 1u);
  auto expect = ref::PageRank(g, 1);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(one.rank[v], expect[v], 1e-12);
  }
}

TEST(SubstructureCosts, NoNvramWrites) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(9, 10000, 5);
  cm.ResetCounters();
  (void)KCore(g);
  (void)ApproxDensestSubgraph(g);
  (void)TriangleCount(g);
  (void)PageRank(g, 1e-6, 20);
  EXPECT_EQ(cm.Totals().nvram_writes, 0u);
}

}  // namespace
}  // namespace sage
