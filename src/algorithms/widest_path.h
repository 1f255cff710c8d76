// Single-source widest path (maximum bottleneck path) on integral weights
// (Section 4.3.1). Two implementations, as in the paper:
//  - WidestPathBF:       Bellman-Ford-style iterative write-max;
//  - WidestPathBucketed: Julienne-style bucketing in decreasing capacity
//    order (capacities are bounded by the maximum edge weight, so buckets
//    are dense and few).
#pragma once

#include <atomic>
#include <limits>
#include <vector>

#include "algorithms/bellman_ford.h"
#include "core/bucketing.h"
#include "core/edge_map.h"
#include "core/vertex_subset.h"
#include "graph/types.h"

namespace sage {

/// Widest-path relaxation: capacity through (s, d) is min(cap[s], w); take
/// the max over incoming relaxations. Like BellmanFordF, dense rounds run
/// dense-forward.
struct WidestPathF {
  static constexpr bool kNoEarlyExit = true;
  std::atomic<uint64_t>* cap;
  std::atomic<uint8_t>* in_next;

  bool update(vertex_id s, vertex_id d, weight_t w) {
    return updateAtomic(s, d, w);
  }
  bool updateAtomic(vertex_id s, vertex_id d, weight_t w) {
    uint64_t through =
        std::min<uint64_t>(cap[s].load(std::memory_order_relaxed), w);
    if (internal::WriteMax(&cap[d], through)) {
      uint8_t expected = 0;
      return in_next[d].compare_exchange_strong(expected, 1,
                                                std::memory_order_relaxed);
    }
    return false;
  }
  bool cond(vertex_id) { return true; }
};

/// Bellman-Ford-style widest path from src. cap[src] = +inf; unreachable
/// vertices have capacity 0.
template <typename GraphT>
std::vector<uint64_t> WidestPathBF(const GraphT& g, vertex_id src,
                                   const EdgeMapOptions& opts =
                                       EdgeMapOptions{}) {
  SAGE_CHECK_MSG(g.weighted(), "WidestPath requires a weighted graph");
  const vertex_id n = g.num_vertices();
  std::vector<std::atomic<uint64_t>> cap(n);
  std::vector<std::atomic<uint8_t>> in_next(n);
  parallel_for(0, n, [&](size_t v) {
    cap[v].store(0, std::memory_order_relaxed);
    in_next[v].store(0, std::memory_order_relaxed);
  });
  cap[src].store(std::numeric_limits<uint64_t>::max(),
                 std::memory_order_relaxed);
  auto frontier = VertexSubset::Single(n, src);
  for (vertex_id round = 0; round < n && !frontier.IsEmpty(); ++round) {
    WidestPathF f{cap.data(), in_next.data()};
    frontier = EdgeMap(g, frontier, f, opts);
    frontier.Map([&](vertex_id v) {
      in_next[v].store(0, std::memory_order_relaxed);
    });
  }
  return tabulate<uint64_t>(n, [&](size_t v) {
    return cap[v].load(std::memory_order_relaxed);
  });
}

/// Bucketed widest path from src (buckets = capacities, processed in
/// decreasing order; popped vertices are settled by the max-min analogue of
/// the Dijkstra argument).
template <typename GraphT>
std::vector<uint64_t> WidestPathBucketed(const GraphT& g, vertex_id src,
                                         const EdgeMapOptions& opts =
                                             EdgeMapOptions{}) {
  SAGE_CHECK_MSG(g.weighted(), "WidestPath requires a weighted graph");
  const vertex_id n = g.num_vertices();
  // Capacities of reached vertices lie in [1, max_weight].
  uint64_t max_w = reduce_max<uint64_t>(
      n,
      [&](size_t v) {
        uint64_t best = 0;
        vertex_id d = g.degree_uncharged(static_cast<vertex_id>(v));
        for (vertex_id i = 0; i < d; ++i) {
          best = std::max<uint64_t>(
              best, g.weight_at(static_cast<vertex_id>(v), i));
        }
        return best;
      },
      0);
  std::vector<std::atomic<uint64_t>> cap(n);
  std::vector<std::atomic<uint8_t>> in_next(n);
  parallel_for(0, n, [&](size_t v) {
    cap[v].store(0, std::memory_order_relaxed);
    in_next[v].store(0, std::memory_order_relaxed);
  });
  cap[src].store(std::numeric_limits<uint64_t>::max(),
                 std::memory_order_relaxed);
  bucket_id max_bucket = static_cast<bucket_id>(max_w + 1);
  Buckets buckets(
      n,
      [&](vertex_id v) {
        return v == src ? max_bucket : kNullBucket;
      },
      BucketOrder::kDecreasing, max_bucket);
  for (;;) {
    auto bkt = buckets.NextBucket();
    if (bkt.id == kNullBucket) break;
    auto frontier = VertexSubset::Sparse(n, std::move(bkt.vertices));
    WidestPathF f{cap.data(), in_next.data()};
    auto next = EdgeMap(g, frontier, f, opts);
    next.ToSparse();
    std::vector<std::pair<vertex_id, bucket_id>> updates(next.size());
    const auto& ids = next.ids();
    parallel_for(0, ids.size(), [&](size_t i) {
      vertex_id v = ids[i];
      in_next[v].store(0, std::memory_order_relaxed);
      uint64_t c = cap[v].load(std::memory_order_relaxed);
      updates[i] = {v, static_cast<bucket_id>(
                           std::min<uint64_t>(c, max_bucket))};
    });
    buckets.UpdateBuckets(updates);
  }
  return tabulate<uint64_t>(n, [&](size_t v) {
    return cap[v].load(std::memory_order_relaxed);
  });
}

}  // namespace sage
