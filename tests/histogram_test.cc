// Tests for the histogram primitive (sparse semisort and dense paths).
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "graph/generators.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

TEST(HistogramKeys, CountsOccurrences) {
  std::vector<vertex_id> keys{3, 1, 3, 3, 7, 1};
  auto h = HistogramKeys(keys);
  std::sort(h.begin(), h.end());  // the semisort's order is unspecified
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], (std::pair<vertex_id, uint32_t>{1, 2}));
  EXPECT_EQ(h[1], (std::pair<vertex_id, uint32_t>{3, 3}));
  EXPECT_EQ(h[2], (std::pair<vertex_id, uint32_t>{7, 1}));
}

TEST(HistogramKeys, EmptyInput) {
  EXPECT_TRUE(HistogramKeys({}).empty());
}

TEST(HistogramKeys, LargeRandomMatchesMap) {
  Rng rng(3);
  std::vector<vertex_id> keys(100000);
  std::map<vertex_id, uint32_t> expect;
  for (auto& k : keys) {
    k = static_cast<vertex_id>(rng.Next(500));
    expect[k]++;
  }
  auto h = HistogramKeys(keys);
  ASSERT_EQ(h.size(), expect.size());
  for (auto [k, c] : h) ASSERT_EQ(c, expect[k]);
}

/// Expects `h` to hold exactly the (key, count) pairs of the keys other
/// than kNoVertex, each key once.
void ExpectMatchesMap(const std::vector<vertex_id>& keys,
                      const std::vector<std::pair<vertex_id, uint32_t>>& h) {
  std::map<vertex_id, uint32_t> expect;
  for (vertex_id k : keys) {
    if (k != kNoVertex) expect[k]++;
  }
  ASSERT_EQ(h.size(), expect.size());
  std::map<vertex_id, uint32_t> got;
  for (auto [k, c] : h) {
    ASSERT_TRUE(got.emplace(k, c).second) << "key " << k << " repeated";
  }
  EXPECT_EQ(got, expect);
}

/// Semisort inputs: below and above one bucket, heavy and skewed keys,
/// dead keys only, and nothing at all.
std::vector<std::vector<vertex_id>> SemisortInputs() {
  std::vector<std::vector<vertex_id>> inputs;
  // All-distinct keys (a permutation-like stride), one bucket and many.
  for (size_t k : {1000u, 300000u}) {
    std::vector<vertex_id> keys(k);
    for (size_t i = 0; i < k; ++i) {
      keys[i] = static_cast<vertex_id>((i * 7919) % k);
    }
    inputs.push_back(std::move(keys));
  }
  // One key repeated 10^6 times: a single bucket holds every key.
  inputs.push_back(std::vector<vertex_id>(1000000, 42));
  // Zipf(1.2)-skewed keys over 10^5 ranks, with dead keys mixed in.
  {
    const size_t ranks = 100000;
    std::vector<double> cdf(ranks);
    double total = 0;
    for (size_t r = 0; r < ranks; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
      cdf[r] = total;
    }
    Rng rng(17);
    std::vector<vertex_id> keys(400000);
    for (auto& key : keys) {
      if (rng.Next(10) == 0) {
        key = kNoVertex;
        continue;
      }
      double u = rng.NextDouble() * total;
      size_t r = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      key = static_cast<vertex_id>(std::min(r, ranks - 1) * 2654435761u);
    }
    inputs.push_back(std::move(keys));
  }
  // Only dead keys, below and above one bucket.
  inputs.push_back(std::vector<vertex_id>(100, kNoVertex));
  inputs.push_back(std::vector<vertex_id>(50000, kNoVertex));
  inputs.push_back({});
  return inputs;
}

TEST(HistogramKeys, SemisortMatchesMap) {
  for (const auto& keys : SemisortInputs()) {
    SCOPED_TRACE(keys.size());
    ExpectMatchesMap(keys, HistogramKeys(keys));
  }
}

TEST(HistogramKeys, ChargesDoNotDependOnWidth) {
  // Charges are a function of the key counts alone, so every width charges
  // the same words (the partitioned inputs span several blocks at every
  // width).
  for (const auto& keys : SemisortInputs()) {
    SCOPED_TRACE(keys.size());
    std::vector<nvram::CostTotals> totals;
    for (int width : {1, 2, 4}) {
      Scheduler::Reset(width);
      nvram::CostScope scope;
      auto h = HistogramKeys(keys);
      totals.push_back(scope.Delta());
    }
    for (const auto& t : totals) {
      EXPECT_EQ(t.dram_reads, totals[0].dram_reads);
      EXPECT_EQ(t.dram_writes, totals[0].dram_writes);
      EXPECT_EQ(t.nvram_reads, totals[0].nvram_reads);
      EXPECT_EQ(t.nvram_writes, totals[0].nvram_writes);
    }
    if (!keys.empty()) EXPECT_GT(totals[0].dram_reads, 0u);
  }
  Scheduler::Reset(0);
}

/// Reference: per-vertex count of frontier neighbors.
std::map<vertex_id, uint32_t> ReferenceNeighborCounts(
    const Graph& g, const std::vector<vertex_id>& frontier) {
  std::map<vertex_id, uint32_t> counts;
  for (vertex_id u : frontier) {
    for (vertex_id v : g.NeighborsUncharged(u)) counts[v]++;
  }
  return counts;
}

TEST(NeighborHistogram, SparseAndDensePathsAgree) {
  Graph g = RmatGraph(10, 15000, 5);
  std::vector<vertex_id> members;
  for (vertex_id v = 0; v < g.num_vertices(); v += 3) members.push_back(v);
  auto expect = ReferenceNeighborCounts(g, members);

  auto sparse_frontier = VertexSubset::Sparse(g.num_vertices(),
                                              std::vector<vertex_id>(members));
  auto sparse = SparseNeighborHistogram(g, sparse_frontier,
                                        [](vertex_id) { return true; });
  ASSERT_EQ(sparse.size(), expect.size());
  for (auto [v, c] : sparse) ASSERT_EQ(c, expect[v]) << v;

  auto dense_frontier = VertexSubset::Sparse(g.num_vertices(),
                                             std::vector<vertex_id>(members));
  dense_frontier.ToDense();
  auto dense = DenseNeighborHistogram(g, dense_frontier,
                                      [](vertex_id) { return true; });
  ASSERT_EQ(dense.size(), expect.size());
  for (auto [v, c] : dense) ASSERT_EQ(c, expect[v]) << v;
}

TEST(NeighborHistogram, PredicateFiltersTargets) {
  Graph g = CompleteGraph(30);
  auto frontier = VertexSubset::Sparse(30, {0, 1, 2});
  auto h = SparseNeighborHistogram(g, frontier,
                                   [](vertex_id v) { return v >= 20; });
  ASSERT_EQ(h.size(), 10u);
  for (auto [v, c] : h) {
    EXPECT_GE(v, 20u);
    EXPECT_EQ(c, 3u);  // each of 0,1,2 is adjacent to v
  }
}

TEST(NeighborHistogram, AutoSelectsAndMatchesReference) {
  Graph g = RmatGraph(9, 10000, 8);
  // Large frontier -> dense path.
  std::vector<vertex_id> all;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  auto expect = ReferenceNeighborCounts(g, all);
  auto frontier = VertexSubset::All(g.num_vertices());
  auto h = NeighborHistogram(g, frontier, [](vertex_id) { return true; });
  ASSERT_EQ(h.size(), expect.size());
  for (auto [v, c] : h) ASSERT_EQ(c, expect[v]);
}

}  // namespace
}  // namespace sage
