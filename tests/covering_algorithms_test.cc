// Tests for the covering family: MIS, maximal matching, graph coloring,
// approximate set cover.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/coloring.h"
#include "algorithms/maximal_matching.h"
#include "algorithms/mis.h"
#include "algorithms/reference/sequential.h"
#include "algorithms/set_cover.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "nvram/execution_context.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

struct CoverCase {
  const char* name;
  Graph (*make)();
};

Graph CovRmat() { return RmatGraph(10, 15000, 3); }
Graph CovUniform() { return UniformRandomGraph(2000, 10000, 7); }
Graph CovGrid() { return GridGraph(30, 33); }
Graph CovStar() { return StarGraph(2000); }
Graph CovComplete() { return CompleteGraph(60); }
Graph CovCliques() { return DisjointCliques(30, 7); }

class CoveringGraphs : public ::testing::TestWithParam<CoverCase> {};

TEST_P(CoveringGraphs, MisIsMaximalIndependent) {
  Graph g = GetParam().make();
  auto mis = MaximalIndependentSet(g, 5);
  EXPECT_TRUE(ref::IsMaximalIndependentSet(g, mis));
}

TEST_P(CoveringGraphs, MatchingIsMaximal) {
  Graph g = GetParam().make();
  auto matching = MaximalMatching(g, 11);
  EXPECT_TRUE(ref::IsMaximalMatching(g, matching));
}

TEST_P(CoveringGraphs, ColoringIsProperAndBounded) {
  Graph g = GetParam().make();
  auto colors = GraphColoring(g, 17);
  EXPECT_TRUE(ref::IsProperColoring(g, colors));
  auto stats = ComputeStats(g);
  uint32_t max_color = *std::max_element(colors.begin(), colors.end());
  EXPECT_LE(max_color, stats.max_degree);  // at most Delta + 1 colors
}

TEST_P(CoveringGraphs, SetCoverCoversEverything) {
  Graph g = GetParam().make();
  auto cover = ApproximateSetCover(g);
  EXPECT_TRUE(ref::IsSetCover(g, cover));
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, CoveringGraphs,
    ::testing::Values(CoverCase{"rmat", CovRmat},
                      CoverCase{"uniform", CovUniform},
                      CoverCase{"grid", CovGrid}, CoverCase{"star", CovStar},
                      CoverCase{"complete", CovComplete},
                      CoverCase{"cliques", CovCliques}),
    [](const auto& tpinfo) { return tpinfo.param.name; });

TEST(Mis, DifferentSeedsAllValid) {
  Graph g = RmatGraph(9, 8000, 1);
  for (uint64_t seed : {1, 2, 3, 42}) {
    ASSERT_TRUE(
        ref::IsMaximalIndependentSet(g, MaximalIndependentSet(g, seed)))
        << seed;
  }
}

TEST(Mis, StarPicksCenterOrAllLeaves) {
  Graph g = StarGraph(100);
  auto mis = MaximalIndependentSet(g, 3);
  size_t count = 0;
  for (auto m : mis) count += m;
  // Either {center} or all 99 leaves.
  EXPECT_TRUE(count == 1 || count == 99);
}

TEST(MaximalMatching, CompleteGraphMatchesHalf) {
  Graph g = CompleteGraph(64);
  auto matching = MaximalMatching(g, 3);
  EXPECT_EQ(matching.size(), 32u);  // perfect matching on K_64
}

TEST(MaximalMatching, PathAlternates) {
  Graph g = PathGraph(100);
  auto matching = MaximalMatching(g, 9);
  ASSERT_TRUE(ref::IsMaximalMatching(g, matching));
  // A maximal matching on P_100 has between 34 and 50 edges.
  EXPECT_GE(matching.size(), 34u);
  EXPECT_LE(matching.size(), 50u);
}

/// The eight PSAM counters of `t`, for whole-record comparison.
std::vector<uint64_t> Counters(const nvram::CostTotals& t) {
  return {t.dram_reads,           t.dram_writes,
          t.nvram_reads,          t.nvram_writes,
          t.nvram_prefetch_reads, t.remote_nvram_accesses,
          t.memory_mode_hits,     t.memory_mode_misses};
}

TEST(MaximalMatching, SameMatchingAndCountersAtEveryWidth) {
  // Each candidate edge's priority is a hash of the seed, the round and
  // the edge, so the matching and every charge are the same at any width.
  Graph g = RmatGraph(12, 60000, 21);
  std::vector<std::pair<vertex_id, vertex_id>> matching_w1;
  std::vector<uint64_t> cost_w1;
  for (int width : {1, 2, 4, 8}) {
    SCOPED_TRACE(width);
    Scheduler::Reset(width);
    nvram::CostScope scope;
    auto matching = MaximalMatching(g, 5);
    const auto cost = Counters(scope.Delta());
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

TEST(Coloring, BipartiteGridUsesFewColors) {
  Graph g = GridGraph(20, 20);
  auto colors = GraphColoring(g, 1);
  ASSERT_TRUE(ref::IsProperColoring(g, colors));
  uint32_t max_color = *std::max_element(colors.begin(), colors.end());
  // Greedy LLF on a grid should stay well under Delta + 1 = 5; typically 2-4.
  EXPECT_LE(max_color, 4u);
}

TEST(Coloring, CompleteGraphNeedsExactlyNColors) {
  Graph g = CompleteGraph(40);
  auto colors = GraphColoring(g, 7);
  ASSERT_TRUE(ref::IsProperColoring(g, colors));
  std::vector<uint32_t> sorted = colors;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 40; ++i) ASSERT_EQ(sorted[i], i);
}

TEST(SetCover, SizeWithinConstantOfGreedy) {
  Graph g = UniformRandomGraph(300, 3000, 5);
  auto cover = ApproximateSetCover(g);
  ASSERT_TRUE(ref::IsSetCover(g, cover));
  auto greedy = ref::GreedySetCover(g);
  EXPECT_LE(cover.size(), 4 * greedy.size() + 4);
}

TEST(SetCover, StarIsCoveredByCenterAndOneLeaf) {
  Graph g = StarGraph(500);
  auto cover = ApproximateSetCover(g);
  ASSERT_TRUE(ref::IsSetCover(g, cover));
  // Center covers all leaves; one leaf covers the center.
  EXPECT_LE(cover.size(), 3u);
}

TEST(CoveringCosts, NoNvramWrites) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(9, 8000, 13);
  cm.ResetCounters();
  (void)MaximalIndependentSet(g, 1);
  (void)MaximalMatching(g, 1);
  (void)GraphColoring(g, 1);
  (void)ApproximateSetCover(g);
  EXPECT_EQ(cm.Totals().nvram_writes, 0u);
}

}  // namespace
}  // namespace sage
