// GBBS-style baseline pipelines for the "edge deleting" algorithms: the
// same logic as the Sage versions, but filtering mutates a PackedGraph
// (in-place adjacency packing = graph-region writes) instead of a DRAM
// graphFilter. Traversal baselines need no separate code: GBBS's
// edgeMapBlocked is selected with SparseVariant::kBlocked, and the
// libvmmalloc / MemoryMode configurations are AllocPolicy settings.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "algorithms/maximal_matching.h"
#include "baselines/packed_graph.h"
#include "graph/graph.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage::baselines {

/// Triangle counting with in-place orientation (GBBS): packs the mutable
/// graph from lower to higher (degree, id) rank, then intersects.
inline uint64_t GbbsTriangleCount(const Graph& g) {
  PackedGraph pg(g);
  auto rank_less = [&](vertex_id a, vertex_id b) {
    uint32_t da = g.degree_uncharged(a), db = g.degree_uncharged(b);
    return da != db ? da < db : a < b;
  };
  pg.FilterEdges([&](vertex_id v, vertex_id u) { return rank_less(v, u); });
  const vertex_id n = pg.num_vertices();
  struct alignas(kCacheLineBytes) Local {
    uint64_t count = 0;
  };
  std::vector<Local> locals(Scheduler::kMaxShards);
  parallel_for(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    auto nv = pg.Neighbors(v);
    uint64_t c = 0;
    for (vertex_id u : nv) {
      auto nu = pg.Neighbors(u);
      size_t x = 0, y = 0;
      while (x < nv.size() && y < nu.size()) {
        if (nv[x] < nu[y]) {
          ++x;
        } else if (nv[x] > nu[y]) {
          ++y;
        } else {
          ++c;
          ++x;
          ++y;
        }
      }
    }
    locals[shard_id()].count += c;
  });
  uint64_t total = 0;
  for (const auto& l : locals) total += l.count;
  return total;
}

/// Maximal matching with in-place filtering (GBBS): random-priority edge
/// matching where edges incident to matched vertices are packed out of the
/// mutable graph each phase.
inline std::vector<std::pair<vertex_id, vertex_id>> GbbsMaximalMatching(
    const Graph& g, uint64_t seed = 1) {
  const vertex_id n = g.num_vertices();
  PackedGraph pg(g);
  std::vector<std::atomic<uint8_t>> matched(n);
  std::vector<std::atomic<uint64_t>> reserve(n);
  parallel_for(0, n, [&](size_t v) {
    matched[v].store(0, std::memory_order_relaxed);
    reserve[v].store(internal::kFreeReservation, std::memory_order_relaxed);
  });
  std::vector<std::pair<vertex_id, vertex_id>> out;
  uint64_t remaining = pg.num_edges();
  uint64_t round = 0;
  while (remaining > 0) {
    std::vector<std::vector<internal::MatchEdge>> local(
        Scheduler::kMaxShards);
    // Keyed as MaximalMatching keys its edges, so the matching does not
    // depend on the schedule.
    const uint64_t round_salt = Hash64(seed ^ (round << 40));
    parallel_for(0, n, [&](size_t vi) {
      vertex_id v = static_cast<vertex_id>(vi);
      if (matched[v].load(std::memory_order_relaxed)) return;
      pg.MapNeighbors(v, [&](vertex_id a, vertex_id b) {
        if (a < b && matched[b].load(std::memory_order_relaxed) == 0) {
          local[shard_id()].push_back(
              {a, b, internal::MatchKey(round_salt, a, b, n)});
        }
      });
    });
    auto batch = flatten(local);
    if (!batch.empty()) {
      internal::MatchBatch(std::move(batch), reserve, matched, out);
    }
    remaining = pg.FilterEdges([&](vertex_id a, vertex_id b) {
      return matched[a].load(std::memory_order_relaxed) == 0 &&
             matched[b].load(std::memory_order_relaxed) == 0;
    });
    ++round;
  }
  return out;
}

}  // namespace sage::baselines
