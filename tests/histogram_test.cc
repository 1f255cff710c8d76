// Tests for the neighbor histogram (sparse fetch-and-add and dense paths).
#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "graph/generators.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

/// Reference: per-vertex count of frontier neighbors v with pred(v).
template <typename Pred>
std::map<vertex_id, uint32_t> ReferenceNeighborCounts(
    const Graph& g, const std::vector<vertex_id>& frontier, const Pred& pred) {
  std::map<vertex_id, uint32_t> counts;
  for (vertex_id u : frontier) {
    for (vertex_id v : g.NeighborsUncharged(u)) {
      if (pred(v)) counts[v]++;
    }
  }
  return counts;
}

std::map<vertex_id, uint32_t> ReferenceNeighborCounts(
    const Graph& g, const std::vector<vertex_id>& frontier) {
  return ReferenceNeighborCounts(g, frontier, [](vertex_id) { return true; });
}

/// Takes the listed counts the way a caller does (reads and zeroes each),
/// expecting every listed vertex once and the array all-zero afterwards.
std::map<vertex_id, uint32_t> TakeCounts(const std::vector<vertex_id>& listed,
                                         std::vector<uint32_t>& counts) {
  std::map<vertex_id, uint32_t> got;
  for (vertex_id v : listed) {
    EXPECT_TRUE(got.emplace(v, counts[v]).second) << "vertex " << v
                                                  << " listed twice";
    counts[v] = 0;
  }
  EXPECT_TRUE(std::all_of(counts.begin(), counts.end(),
                          [](uint32_t c) { return c == 0; }));
  return got;
}

/// Every third vertex of g.
std::vector<vertex_id> EveryThird(const Graph& g) {
  std::vector<vertex_id> members;
  for (vertex_id v = 0; v < g.num_vertices(); v += 3) members.push_back(v);
  return members;
}

/// Degree sum of `members`, which the sparse path takes to size its tasks.
uint64_t DegreeSum(const Graph& g, const std::vector<vertex_id>& members) {
  uint64_t sum = 0;
  for (vertex_id v : members) sum += g.degree_uncharged(v);
  return sum;
}

TEST(NeighborHistogram, SparseAndDensePathsListEachCountedVertexOnce) {
  Graph g = RmatGraph(10, 15000, 5);
  const auto members = EveryThird(g);
  const auto expect = ReferenceNeighborCounts(g, members);
  std::vector<uint32_t> counts(g.num_vertices(), 0);

  auto sparse_frontier = VertexSubset::Sparse(g.num_vertices(),
                                              std::vector<vertex_id>(members));
  auto sparse = SparseNeighborHistogram(
      g, sparse_frontier, [](vertex_id) { return true; }, counts,
      DegreeSum(g, members));
  EXPECT_EQ(TakeCounts(sparse, counts), expect);

  auto dense_frontier = VertexSubset::Sparse(g.num_vertices(),
                                             std::vector<vertex_id>(members));
  dense_frontier.ToDense();
  auto dense = DenseNeighborHistogram(
      g, dense_frontier, [](vertex_id) { return true; }, counts);
  EXPECT_TRUE(std::is_sorted(dense.begin(), dense.end()));
  EXPECT_EQ(TakeCounts(dense, counts), expect);
}

TEST(NeighborHistogram, PredicateFiltersTargets) {
  Graph g = CompleteGraph(30);
  std::vector<uint32_t> counts(30, 0);
  auto frontier = VertexSubset::Sparse(30, {0, 1, 2});
  auto listed = SparseNeighborHistogram(
      g, frontier, [](vertex_id v) { return v >= 20; }, counts, 3 * 29);
  auto got = TakeCounts(listed, counts);
  ASSERT_EQ(got.size(), 10u);
  for (auto [v, c] : got) {
    EXPECT_GE(v, 20u);
    EXPECT_EQ(c, 3u);  // each of 0,1,2 is adjacent to v
  }
}

TEST(NeighborHistogram, AutoSelectsAndMatchesReference) {
  Graph g = RmatGraph(9, 10000, 8);
  std::vector<uint32_t> counts(g.num_vertices(), 0);
  // Large frontier -> dense path.
  std::vector<vertex_id> all;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  auto frontier = VertexSubset::All(g.num_vertices());
  auto listed =
      NeighborHistogram(g, frontier, [](vertex_id) { return true; }, counts);
  EXPECT_TRUE(frontier.is_dense());
  EXPECT_EQ(TakeCounts(listed, counts), ReferenceNeighborCounts(g, all));
  // Two vertices -> sparse path, reusing the zeroed array.
  const std::vector<vertex_id> few{0, 1};
  auto small = VertexSubset::Sparse(g.num_vertices(), {0, 1});
  listed =
      NeighborHistogram(g, small, [](vertex_id) { return true; }, counts);
  EXPECT_FALSE(small.is_dense());
  EXPECT_EQ(TakeCounts(listed, counts), ReferenceNeighborCounts(g, few));
}

TEST(NeighborHistogram, RoundsReuseTheArrayAndChargeAlikeAtEveryWidth) {
  // Peeling-style rounds over one array: each round's frontier is the next
  // third of the vertices, counted only into vertices not yet peeled; then
  // two sparse rounds. Every width lists the same vertices with the same
  // counts and charges the same words, on both paths.
  Graph g = RmatGraph(14, 200000, 9);
  const vertex_id n = g.num_vertices();
  const uint64_t threshold = g.num_edges() / internal::kHistogramThresholdDen;
  // The highest-degree vertices while the round stays at most m/20: fewer
  // vertices than parallel_for's default puts in one task, yet several
  // tasks of kHistogramTaskEdges edges.
  std::vector<vertex_id> hubs(n);
  for (vertex_id v = 0; v < n; ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(), [&](vertex_id a, vertex_id b) {
    return g.degree_uncharged(a) > g.degree_uncharged(b);
  });
  uint64_t hub_edges = 0;
  size_t num_hubs = 0;
  while (hub_edges + g.degree_uncharged(hubs[num_hubs]) + num_hubs + 1 <=
         threshold) {
    hub_edges += g.degree_uncharged(hubs[num_hubs++]);
  }
  hubs.resize(num_hubs);
  ASSERT_LT(hubs.size(), 256u);
  ASSERT_GT(hub_edges, 4 * internal::kHistogramTaskEdges);
  std::vector<std::map<vertex_id, uint32_t>> first_width;
  nvram::CostTotals first_totals;
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE(width);
    Scheduler::Reset(width);
    std::vector<uint32_t> counts(n, 0);
    std::vector<uint8_t> peeled(n, 0);
    std::vector<std::map<vertex_id, uint32_t>> rounds;
    nvram::CostScope scope;
    // Each third of an RMAT graph's vertices is above m/20: dense path.
    for (vertex_id lo : {vertex_id{0}, n / 3, 2 * n / 3}) {
      std::vector<vertex_id> members;
      for (vertex_id v = lo; v < std::min(n, lo + n / 3 + 1); ++v) {
        if (!peeled[v]) members.push_back(v);
      }
      for (vertex_id v : members) peeled[v] = 1;
      auto live = [&](vertex_id v) { return peeled[v] == 0; };
      auto frontier = VertexSubset::Sparse(n, std::vector<vertex_id>(members));
      auto listed = NeighborHistogram(g, frontier, live, counts);
      EXPECT_TRUE(frontier.is_dense());
      rounds.push_back(TakeCounts(listed, counts));
      EXPECT_EQ(rounds.back(), ReferenceNeighborCounts(g, members, live));
    }
    // Up to 600 vertices of degree 1 to 3, most of them adding to the
    // hubs, then the hubs themselves: both below m/20, so the sparse path.
    std::vector<vertex_id> low;
    for (vertex_id v = 0; v < n && low.size() < 600; ++v) {
      const uint32_t d = g.degree_uncharged(v);
      if (d >= 1 && d <= 3) low.push_back(v);
    }
    for (const auto* members : {&low, &hubs}) {
      auto sparse = VertexSubset::Sparse(n, std::vector<vertex_id>(*members));
      auto listed = NeighborHistogram(
          g, sparse, [](vertex_id) { return true; }, counts);
      EXPECT_FALSE(sparse.is_dense());
      rounds.push_back(TakeCounts(listed, counts));
      EXPECT_EQ(rounds.back(), ReferenceNeighborCounts(g, *members));
    }
    const nvram::CostTotals totals = scope.Delta();
    if (width == 1) {
      first_width = rounds;
      first_totals = totals;
      continue;
    }
    EXPECT_EQ(rounds, first_width);
    EXPECT_EQ(totals.dram_reads, first_totals.dram_reads);
    EXPECT_EQ(totals.dram_writes, first_totals.dram_writes);
    EXPECT_EQ(totals.nvram_reads, first_totals.nvram_reads);
    EXPECT_EQ(totals.nvram_writes, first_totals.nvram_writes);
  }
  Scheduler::Reset(0);
}

}  // namespace
}  // namespace sage
