// Tests for edgeMap: all three sparse variants and the dense traversal
// must compute identical BFS level sets; direction optimization must agree
// with forced modes; edgeMapChunked must stay within O(n) intermediate
// memory while edgeMapSparse/Blocked use Theta(sum deg) (Table 5); dense
// rounds of no-early-exit functors read only the frontier's lists.
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bellman_ford.h"
#include "core/chunk_pool.h"
#include "core/edge_map.h"
#include "graph/compressed_graph.h"
#include "graph/generators.h"

namespace sage {
namespace {

/// The canonical BFS functor from Figure 4 of the paper.
struct BfsFunctor {
  std::vector<std::atomic<vertex_id>>& parents;

  bool update(vertex_id s, vertex_id d, weight_t) {
    if (parents[d].load(std::memory_order_relaxed) == kNoVertex) {
      parents[d].store(s, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  bool updateAtomic(vertex_id s, vertex_id d, weight_t) {
    vertex_id expect = kNoVertex;
    return parents[d].compare_exchange_strong(expect, s,
                                              std::memory_order_relaxed);
  }
  bool cond(vertex_id d) {
    return parents[d].load(std::memory_order_relaxed) == kNoVertex;
  }
};

/// Runs BFS from src with the given options; returns per-vertex levels
/// (kNoVertex-level = unreached encoded as max).
template <typename GraphT>
std::vector<uint32_t> BfsLevels(const GraphT& g, vertex_id src,
                                const EdgeMapOptions& opts) {
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<vertex_id>> parents(n);
  parallel_for(0, n, [&](size_t v) { parents[v].store(kNoVertex); });
  parents[src].store(src);
  std::vector<uint32_t> level(n, std::numeric_limits<uint32_t>::max());
  level[src] = 0;
  auto frontier = VertexSubset::Single(n, src);
  uint32_t depth = 0;
  while (!frontier.IsEmpty()) {
    ++depth;
    BfsFunctor f{parents};
    auto next = EdgeMap(g, frontier, f, opts);
    next.ToSparse();
    for (vertex_id v : next.ids()) level[v] = depth;
    frontier = std::move(next);
  }
  return level;
}

/// Sequential reference BFS levels.
std::vector<uint32_t> ReferenceLevels(const Graph& g, vertex_id src) {
  std::vector<uint32_t> level(g.num_vertices(),
                              std::numeric_limits<uint32_t>::max());
  std::vector<vertex_id> queue{src};
  level[src] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    vertex_id u = queue[head];
    for (vertex_id v : g.NeighborsUncharged(u)) {
      if (level[v] == std::numeric_limits<uint32_t>::max()) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

struct VariantModeCase {
  SparseVariant variant;
  TraversalMode mode;
};

class EdgeMapVariants : public ::testing::TestWithParam<VariantModeCase> {};

TEST_P(EdgeMapVariants, BfsLevelsMatchReferenceOnRmat) {
  Graph g = RmatGraph(11, 30000, 4);
  EdgeMapOptions opts;
  opts.sparse_variant = GetParam().variant;
  opts.mode = GetParam().mode;
  EXPECT_EQ(BfsLevels(g, 0, opts), ReferenceLevels(g, 0));
}

TEST_P(EdgeMapVariants, BfsLevelsMatchReferenceOnGrid) {
  Graph g = GridGraph(40, 55);
  EdgeMapOptions opts;
  opts.sparse_variant = GetParam().variant;
  opts.mode = GetParam().mode;
  EXPECT_EQ(BfsLevels(g, 17, opts), ReferenceLevels(g, 17));
}

TEST_P(EdgeMapVariants, BfsLevelsMatchReferenceOnStar) {
  Graph g = StarGraph(5000);
  EdgeMapOptions opts;
  opts.sparse_variant = GetParam().variant;
  opts.mode = GetParam().mode;
  EXPECT_EQ(BfsLevels(g, 1, opts), ReferenceLevels(g, 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, EdgeMapVariants,
    ::testing::Values(
        VariantModeCase{SparseVariant::kSparse, TraversalMode::kAuto},
        VariantModeCase{SparseVariant::kBlocked, TraversalMode::kAuto},
        VariantModeCase{SparseVariant::kChunked, TraversalMode::kAuto},
        VariantModeCase{SparseVariant::kSparse, TraversalMode::kSparseOnly},
        VariantModeCase{SparseVariant::kBlocked, TraversalMode::kSparseOnly},
        VariantModeCase{SparseVariant::kChunked, TraversalMode::kSparseOnly},
        VariantModeCase{SparseVariant::kChunked, TraversalMode::kDenseOnly}));

TEST(EdgeMapCompressed, ChunkedBfsOnCompressedGraphMatches) {
  Graph g = RmatGraph(11, 30000, 9);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 64);
  EdgeMapOptions opts;  // chunked by default
  EXPECT_EQ(BfsLevels(cg, 0, opts), ReferenceLevels(g, 0));
}

TEST(EdgeMapCompressed, SparseOnlyBfsOnCompressedGraphMatches) {
  Graph g = RmatGraph(10, 15000, 13);
  CompressedGraph cg = CompressedGraph::FromGraph(g, 32);
  EdgeMapOptions opts;
  opts.mode = TraversalMode::kSparseOnly;
  EXPECT_EQ(BfsLevels(cg, 5, opts), ReferenceLevels(g, 5));
}

TEST(EdgeMap, EmptyFrontierYieldsEmpty) {
  Graph g = PathGraph(10);
  auto frontier = VertexSubset::Empty(10);
  std::vector<std::atomic<vertex_id>> parents(10);
  for (auto& p : parents) p.store(kNoVertex);
  BfsFunctor f{parents};
  auto next = EdgeMap(g, frontier, f);
  EXPECT_TRUE(next.IsEmpty());
}

TEST(EdgeMap, NoDuplicateOutputsWithCasDiscipline) {
  // Many sources share targets; the CAS discipline admits each target once.
  Graph g = CompleteGraph(200);
  std::vector<std::atomic<vertex_id>> parents(200);
  for (auto& p : parents) p.store(kNoVertex);
  parents[0].store(0);
  auto frontier = VertexSubset::Single(200, 0);
  BfsFunctor f{parents};
  EdgeMapOptions opts;
  opts.mode = TraversalMode::kSparseOnly;
  auto next = EdgeMap(g, frontier, f, opts);
  next.ToSparse();
  std::vector<bool> seen(200, false);
  for (vertex_id v : next.ids()) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(next.size(), 199u);
}

/// One EdgeMap step from a sparse frontier under kAuto; whether the result
/// is dense reveals which direction the optimizer picked (EdgeMapDense
/// returns a dense subset, every sparse variant a sparse one).
bool StepWentDense(const Graph& g, std::vector<vertex_id> frontier_ids,
                   EdgeMapOptions opts) {
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<vertex_id>> parents(n);
  for (auto& p : parents) p.store(kNoVertex);
  for (vertex_id v : frontier_ids) parents[v].store(v);
  auto frontier = VertexSubset::Sparse(n, std::move(frontier_ids));
  BfsFunctor f{parents};
  auto next = EdgeMap(g, frontier, f, opts);
  return next.is_dense();
}

TEST(EdgeMapDirection, TinyGraphsStaySparseUnderAuto) {
  // m = 12 < kDenseThresholdDen = 20: the truncated Beamer threshold
  // (m / 20 = 0, clamped to 1) used to send every frontier with
  // |U| + deg(U) > 1 dense. The heuristic is a constant-factor bet that
  // only makes sense once m >= den; tiny graphs stay on the push path.
  Graph g = CompleteGraph(4);
  ASSERT_LT(g.num_edges(), internal::kDenseThresholdDen);
  EXPECT_FALSE(StepWentDense(g, {0}, EdgeMapOptions{}));
}

TEST(EdgeMapDirection, HeavyFrontierStillGoesDenseOnce) {
  // m = 64 * 63 = 4032 >> 20: a full frontier exceeds m / 20 and the
  // optimizer must still switch to pull.
  Graph g = CompleteGraph(64);
  std::vector<vertex_id> all = tabulate<vertex_id>(
      64, [](size_t i) { return static_cast<vertex_id>(i); });
  EXPECT_TRUE(StepWentDense(g, std::move(all), EdgeMapOptions{}));
  // ... while a single-source frontier (|U| + deg = 64 <= 201) stays sparse.
  EXPECT_FALSE(StepWentDense(g, {0}, EdgeMapOptions{}));
}

TEST(EdgeMapDirection, DenseThresholdIsEdgesOverConstantDen) {
  // Beamer's rule with the fixed denominator: a round goes dense once
  // |U| + deg(U) exceeds m / kDenseThresholdDen, and not at it. Every
  // leaf of a star adds 1 to |U| and 1 to deg(U).
  Graph g = StarGraph(201);
  ASSERT_EQ(g.num_edges() / internal::kDenseThresholdDen, 20u);
  auto leaves = [](size_t k) {
    return tabulate<vertex_id>(
        k, [](size_t i) { return static_cast<vertex_id>(i + 1); });
  };
  EXPECT_FALSE(StepWentDense(g, leaves(10), EdgeMapOptions{}));  // 20
  EXPECT_TRUE(StepWentDense(g, leaves(11), EdgeMapOptions{}));   // 22
  EXPECT_EQ(BfsLevels(g, 1, EdgeMapOptions{}), ReferenceLevels(g, 1));
}

/// Intermediate-memory comparison (the Table 5 property): peak tracked DRAM
/// during a one-step traversal from a full frontier.
uint64_t PeakDuringFullStep(const Graph& g, SparseVariant variant) {
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<vertex_id>> parents(n);
  for (auto& p : parents) p.store(kNoVertex);
  auto ids = tabulate<vertex_id>(n, [](size_t i) {
    return static_cast<vertex_id>(i);
  });
  auto frontier = VertexSubset::Sparse(n, std::move(ids));
  ChunkPool::DrainAll();  // reset pooled chunks between measurements
  auto& mt = nvram::Memory();
  mt.ResetPeak();
  uint64_t before = mt.CurrentBytes();
  BfsFunctor f{parents};
  EdgeMapOptions opts;
  opts.sparse_variant = variant;
  opts.mode = TraversalMode::kSparseOnly;
  auto next = EdgeMap(g, frontier, f, opts);
  return mt.PeakBytes() - before;
}

TEST(EdgeMapMemory, ChunkedUsesLessIntermediateMemoryThanSparse) {
  // Dense-ish graph: m = 32n, so sum deg(U) = 32n words for sparse/blocked
  // while chunked stays O(n).
  Graph g = UniformRandomGraph(4096, 1 << 17, 3);
  uint64_t peak_sparse = PeakDuringFullStep(g, SparseVariant::kSparse);
  uint64_t peak_blocked = PeakDuringFullStep(g, SparseVariant::kBlocked);
  uint64_t peak_chunked = PeakDuringFullStep(g, SparseVariant::kChunked);
  EXPECT_LT(peak_chunked, peak_sparse / 2);
  EXPECT_LT(peak_chunked, peak_blocked / 2);
}

// A functor whose pull scan cannot exit early (kNoEarlyExit) runs its dense
// rounds forward: from half the vertices, a round the direction optimizer
// sends dense reads only the frontier's lists plus the offset words
// FrontierDegree charges - well under the m words a pull scan reads.
TEST(EdgeMapDenseForward, DenseRoundReadsOnlyTheFrontiersLists) {
  Scheduler::Reset(1);
  Graph g = UniformRandomGraph(4096, 1 << 16, 5);  // unweighted, m ~ 32n
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<uint64_t>> dist(n);
  std::vector<std::atomic<uint8_t>> in_next(n);
  std::vector<vertex_id> half;
  uint64_t list_words = 0;
  for (vertex_id v = 0; v < n; ++v) {
    dist[v].store(v % 2 == 0 ? 0 : kInfDist);
    in_next[v].store(0);
    if (v % 2 == 0) {
      half.push_back(v);
      list_words += 1 + g.degree_uncharged(v);
    }
  }
  const uint64_t offset_words = half.size();
  auto frontier = VertexSubset::Sparse(n, std::move(half));

  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  cm.ResetCounters();
  auto next = EdgeMap(g, frontier, BellmanFordF{dist.data(), in_next.data()});
  const uint64_t reads = cm.Totals().nvram_reads;
  EXPECT_TRUE(next.is_dense());  // the optimizer chose a dense round
  EXPECT_LE(reads, list_words + offset_words);
  EXPECT_LT(reads, g.num_edges());

  // Exactly the odd vertices with an even neighbor improve (to 1).
  next.ToSparse();
  std::vector<bool> in_out(n, false);
  for (vertex_id v : next.ids()) in_out[v] = true;
  for (vertex_id v = 0; v < n; ++v) {
    bool expect = false;
    if (v % 2 == 1) {
      for (vertex_id u : g.NeighborsUncharged(v)) expect |= u % 2 == 0;
    }
    ASSERT_EQ(in_out[v], expect) << v;
    if (expect) {
      EXPECT_EQ(dist[v].load(), 1u) << v;
    }
  }
  Scheduler::Reset(0);
}

TEST(EdgeMapCosts, TraversalNeverWritesNvram) {
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  Graph g = RmatGraph(10, 20000, 5);
  cm.ResetCounters();
  EdgeMapOptions opts;
  (void)BfsLevels(g, 0, opts);
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_writes, 0u);
  EXPECT_GT(t.nvram_reads, 0u);
}

TEST(ChunkPool, PoolsAreKeyedByCapacity) {
  ChunkPool& small = ChunkPool::Get(4096);
  ChunkPool& large = ChunkPool::Get(16384);
  EXPECT_NE(&small, &large);
  EXPECT_EQ(small.capacity(), 4096u);
  EXPECT_EQ(large.capacity(), 16384u);
  // Asking for one capacity must never resize the other's chunks (the old
  // single-pool design reconfigured in place here).
  auto a = small.Alloc();
  auto b = large.Alloc();
  EXPECT_EQ(a->capacity(), 4096u);
  EXPECT_EQ(b->capacity(), 16384u);
  small.Release(std::move(a));
  large.Release(std::move(b));
  EXPECT_EQ(ChunkPool::Get(4096).Alloc()->capacity(), 4096u);
  ChunkPool::DrainAll();
}

// Regression for the ChunkPool::Get reconfigure race: two concurrent
// traversals over graphs with different average degrees used to fight over
// one process-wide pool, each dropping and resizing the other's free lists
// mid-allocation. With capacity-keyed pools (and locked free lists for the
// shared foreign worker id) both traversals must run correctly in
// parallel. ASan/TSan builds turn any residual race into a hard failure.
TEST(ChunkPool, TwoGraphsTraversedInParallel) {
  Graph sparse_graph = GridGraph(64, 64);   // avg degree ~4
  Graph dense_graph = RmatGraph(10, 60000, 5);  // avg degree ~50
  auto ref_sparse = ReferenceLevels(sparse_graph, 0);
  auto ref_dense = ReferenceLevels(dense_graph, 0);

  EdgeMapOptions opts;
  opts.sparse_variant = SparseVariant::kChunked;
  opts.mode = TraversalMode::kSparseOnly;  // chunk pools on every step

  std::atomic<int> mismatches{0};
  auto traverse = [&](const Graph& g, const std::vector<uint32_t>& ref,
                      size_t pool_capacity) {
    for (int iter = 0; iter < 4; ++iter) {
      if (BfsLevels(g, 0, opts) != ref) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      // Hammer the capacity-keyed lookup the way a traversal with this
      // graph's degree profile would.
      auto chunk = ChunkPool::Get(pool_capacity).Alloc();
      if (chunk->capacity() != pool_capacity) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      ChunkPool::Get(pool_capacity).Release(std::move(chunk));
    }
  };
  std::thread t1([&] { traverse(sparse_graph, ref_sparse, 4096); });
  std::thread t2([&] { traverse(dense_graph, ref_dense, 8192); });
  t1.join();
  t2.join();
  EXPECT_EQ(mismatches.load(), 0);
  ChunkPool::DrainAll();
}

}  // namespace
}  // namespace sage
