// Tests for the shortest-path family: BFS, weighted BFS, Bellman-Ford,
// widest path, betweenness. Each parallel algorithm is validated against a
// sequential reference on a sweep of generated graphs.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bellman_ford.h"
#include "algorithms/betweenness.h"
#include "algorithms/bfs.h"
#include "algorithms/reference/sequential.h"
#include "algorithms/wbfs.h"
#include "algorithms/widest_path.h"
#include "common/random.h"
#include "graph/builder.h"
#include "graph/compressed_graph.h"
#include "graph/generators.h"

namespace sage {
namespace {

struct GraphCase {
  const char* name;
  Graph (*make)();
};

Graph MakeRmat() { return RmatGraph(10, 20000, 7); }
Graph MakeUniform() { return UniformRandomGraph(2000, 12000, 3); }
Graph MakeGrid() { return GridGraph(37, 41); }
Graph MakeStar() { return StarGraph(3000); }
Graph MakePath() { return PathGraph(2000); }
Graph MakeCliques() { return DisjointCliques(20, 12); }

class TraversalGraphs : public ::testing::TestWithParam<GraphCase> {};

TEST_P(TraversalGraphs, BfsParentsFormValidShortestPathTree) {
  Graph g = GetParam().make();
  auto parents = Bfs(g, 0);
  auto ref_levels = ref::BfsLevels(g, 0);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (ref_levels[v] == std::numeric_limits<uint32_t>::max()) {
      EXPECT_EQ(parents[v], kNoVertex) << v;
    } else if (v == 0) {
      EXPECT_EQ(parents[v], 0u);
    } else {
      // Parent must be exactly one level above.
      ASSERT_NE(parents[v], kNoVertex) << v;
      EXPECT_EQ(ref_levels[parents[v]] + 1, ref_levels[v]) << v;
    }
  }
}

TEST_P(TraversalGraphs, BfsLevelsMatchReference) {
  Graph g = GetParam().make();
  EXPECT_EQ(BfsLevels(g, 0), ref::BfsLevels(g, 0));
}

// The relaxation kernels must give the same answers whichever direction
// their rounds take: the optimizer's mix, all sparse, or all dense (which
// runs dense-forward, since their functors declare kNoEarlyExit).
struct ModeCase {
  const char* name;
  TraversalMode mode;
};
constexpr ModeCase kAllModes[] = {{"auto", TraversalMode::kAuto},
                                  {"sparse-only", TraversalMode::kSparseOnly},
                                  {"dense-only", TraversalMode::kDenseOnly}};

EdgeMapOptions WithMode(TraversalMode mode) {
  EdgeMapOptions opts;
  opts.mode = mode;
  return opts;
}

TEST_P(TraversalGraphs, WeightedBfsMatchesDijkstra) {
  Graph g = AddRandomWeights(GetParam().make(), 99);
  const auto expect = ref::Dijkstra(g, 0);
  for (const ModeCase& c : kAllModes) {
    EXPECT_EQ(WeightedBfs(g, 0, WithMode(c.mode)), expect) << c.name;
  }
}

TEST_P(TraversalGraphs, BellmanFordMatchesDijkstra) {
  Graph g = AddRandomWeights(GetParam().make(), 17);
  const auto expect = ref::Dijkstra(g, 0);
  for (const ModeCase& c : kAllModes) {
    EXPECT_EQ(BellmanFord(g, 0, WithMode(c.mode)), expect) << c.name;
  }
}

TEST_P(TraversalGraphs, WidestPathBothVariantsMatchReference) {
  Graph g = AddRandomWeights(GetParam().make(), 31);
  const auto expect = ref::WidestPath(g, 0);
  for (const ModeCase& c : kAllModes) {
    EXPECT_EQ(WidestPathBF(g, 0, WithMode(c.mode)), expect) << c.name;
    EXPECT_EQ(WidestPathBucketed(g, 0, WithMode(c.mode)), expect) << c.name;
  }
}

TEST_P(TraversalGraphs, BetweennessMatchesBrandes) {
  Graph g = GetParam().make();
  auto got = Betweenness(g, 0);
  auto expect = ref::Betweenness(g, 0);
  ASSERT_EQ(got.size(), expect.size());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    double scale = std::max(1.0, std::fabs(expect[v]));
    ASSERT_NEAR(got[v], expect[v], 1e-7 * scale) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, TraversalGraphs,
    ::testing::Values(GraphCase{"rmat", MakeRmat},
                      GraphCase{"uniform", MakeUniform},
                      GraphCase{"grid", MakeGrid},
                      GraphCase{"star", MakeStar},
                      GraphCase{"path", MakePath},
                      GraphCase{"cliques", MakeCliques}),
    [](const auto& tpinfo) { return tpinfo.param.name; });

TEST(TraversalCompressed, WeightedBfsOnCompressedGraph) {
  Graph g = AddRandomWeights(RmatGraph(9, 8000, 5), 7);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  EXPECT_EQ(WeightedBfs(cg, 3), ref::Dijkstra(g, 3));
}

TEST(TraversalCompressed, BetweennessOnCompressedGraph) {
  Graph g = RmatGraph(9, 8000, 11);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  auto got = Betweenness(cg, 2);
  auto expect = ref::Betweenness(g, 2);
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(got[v], expect[v], 1e-6 * std::max(1.0, expect[v]));
  }
}

TEST(Traversal, SourceInSmallComponentReachesOnlyIt) {
  Graph g = DisjointCliques(10, 8);
  auto levels = BfsLevels(g, 42);  // clique 5
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (v / 8 == 42 / 8) {
      EXPECT_LE(levels[v], 1u);
    } else {
      EXPECT_EQ(levels[v], std::numeric_limits<uint32_t>::max());
    }
  }
}

TEST(Traversal, MultipleSourcesSweep) {
  Graph g = AddRandomWeights(UniformRandomGraph(500, 4000, 13), 5);
  for (vertex_id src : {0u, 13u, 200u, 499u}) {
    ASSERT_EQ(WeightedBfs(g, src), ref::Dijkstra(g, src)) << src;
    ASSERT_EQ(BellmanFord(g, src), ref::Dijkstra(g, src)) << src;
  }
}

// Dense-forward rounds push along out-edges, so unlike pull rounds they do
// not need a symmetric graph: on a directed graph every round can be dense.
TEST(Traversal, RelaxationKernelsRunDenseOnDirectedGraphs) {
  const vertex_id n = 500;
  Random rng(7);
  std::vector<WeightedEdge> edges;
  for (uint64_t i = 0; i < 6000; ++i) {
    edges.push_back({static_cast<vertex_id>(rng.ith_rand(3 * i) % n),
                     static_cast<vertex_id>(rng.ith_rand(3 * i + 1) % n),
                     static_cast<weight_t>(1 + rng.ith_rand(3 * i + 2) % 9)});
  }
  BuildOptions build;
  build.symmetrize = false;
  build.keep_weights = true;
  auto built = GraphBuilder::Build(n, std::move(edges), build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Graph& g = built.ValueOrDie();
  ASSERT_FALSE(g.symmetric());
  const EdgeMapOptions dense = WithMode(TraversalMode::kDenseOnly);
  const auto dist = ref::Dijkstra(g, 0);
  EXPECT_EQ(BellmanFord(g, 0, dense), dist);
  EXPECT_EQ(WeightedBfs(g, 0, dense), dist);
  const auto width = ref::WidestPath(g, 0);
  EXPECT_EQ(WidestPathBF(g, 0, dense), width);
  EXPECT_EQ(WidestPathBucketed(g, 0, dense), width);
}

TEST(Traversal, NoNvramWritesAcrossAllTraversals) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = AddRandomWeights(RmatGraph(9, 8000, 3), 1);
  cm.ResetCounters();
  (void)Bfs(g, 0);
  (void)WeightedBfs(g, 0);
  (void)BellmanFord(g, 0);
  (void)WidestPathBucketed(g, 0);
  (void)Betweenness(g, 0);
  EXPECT_EQ(cm.Totals().nvram_writes, 0u);
  EXPECT_GT(cm.Totals().nvram_reads, 0u);
}

}  // namespace
}  // namespace sage
