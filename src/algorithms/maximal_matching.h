// Maximal matching using the graphFilter (Section 4.3.3, Appendix C.3).
//
// Phases: extract a bounded batch of active edges from the filter (a
// rotating vertex window keeps the batch O(n) words), run random-priority
// matching on the batch [17] (an edge matches when it wins the min-priority
// reservation at both endpoints), then filterEdges packs out every edge
// incident to a matched vertex. The NVRAM-resident graph is never modified.
// PSAM: O(m) expected work, O(log^3 m) depth whp, O(n + m / log n) words.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "algorithms/bellman_ford.h"  // internal::WriteMin
#include "common/random.h"
#include "core/graph_filter.h"
#include "graph/types.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

namespace internal {

/// One round structure for random-priority edge matching.
struct MatchEdge {
  vertex_id u, v;
  uint64_t key;  // unique priority
};

/// Reservation of a vertex no edge holds; no edge's key equals it.
inline constexpr uint64_t kFreeReservation = ~0ULL;

/// Priority of edge (a, b) of an n-vertex graph in the round whose salt is
/// Hash64(seed ^ (round << 40)). Keys are one fixed random order of the
/// round's edges: Hash64 is a bijection and a * n + b names one edge, so
/// keys are unique within the round and do not depend on the schedule.
/// a * n + b < n * n never names ~0, so its key is free to stand in for the
/// one that hits the free marker.
inline uint64_t MatchKey(uint64_t round_salt, vertex_id a, vertex_id b,
                         vertex_id n) {
  const uint64_t key = Hash64(round_salt ^ (uint64_t{a} * n + b));
  return key == kFreeReservation ? Hash64(round_salt ^ ~0ULL) : key;
}

/// Matches a batch of candidate edges; appends matched edges to `out` and
/// sets matched[] for their endpoints. Runs until the batch is exhausted.
inline void MatchBatch(std::vector<MatchEdge> batch,
                       std::vector<std::atomic<uint64_t>>& reserve,
                       std::vector<std::atomic<uint8_t>>& matched,
                       std::vector<std::pair<vertex_id, vertex_id>>& out) {
  while (!batch.empty()) {
    // Reservation: every live edge write-mins its key at both endpoints.
    parallel_for(0, batch.size(), [&](size_t i) {
      const MatchEdge& e = batch[i];
      internal::WriteMin(&reserve[e.u], e.key);
      internal::WriteMin(&reserve[e.v], e.key);
    });
    // Edges winning both endpoints match.
    std::vector<std::vector<std::pair<vertex_id, vertex_id>>> won(
        Scheduler::kMaxShards);
    parallel_for(0, batch.size(), [&](size_t i) {
      const MatchEdge& e = batch[i];
      if (reserve[e.u].load(std::memory_order_relaxed) == e.key &&
          reserve[e.v].load(std::memory_order_relaxed) == e.key) {
        matched[e.u].store(1, std::memory_order_relaxed);
        matched[e.v].store(1, std::memory_order_relaxed);
        won[shard_id()].push_back({e.u, e.v});
      }
    });
    for (auto& w : won) out.insert(out.end(), w.begin(), w.end());
    // Drop edges with a matched endpoint and reset reservations.
    parallel_for(0, batch.size(), [&](size_t i) {
      reserve[batch[i].u].store(kFreeReservation, std::memory_order_relaxed);
      reserve[batch[i].v].store(kFreeReservation, std::memory_order_relaxed);
    });
    batch = filter(batch, [&](const MatchEdge& e) {
      return matched[e.u].load(std::memory_order_relaxed) == 0 &&
             matched[e.v].load(std::memory_order_relaxed) == 0;
    });
  }
}

}  // namespace internal

/// Computes a maximal matching; returns the matched edges (u, v).
template <typename GraphT>
std::vector<std::pair<vertex_id, vertex_id>> MaximalMatching(
    const GraphT& g, uint64_t seed = 1, uint32_t filter_block_size = 0) {
  const vertex_id n = g.num_vertices();
  GraphFilter<GraphT> gf(g, filter_block_size);
  std::vector<std::atomic<uint8_t>> matched(n);
  std::vector<std::atomic<uint64_t>> reserve(n);
  parallel_for(0, n, [&](size_t v) {
    matched[v].store(0, std::memory_order_relaxed);
    reserve[v].store(internal::kFreeReservation, std::memory_order_relaxed);
  });
  std::vector<std::pair<vertex_id, vertex_id>> out;

  const uint64_t budget = 4 * static_cast<uint64_t>(n) + 64;
  vertex_id window_start = 0;
  uint64_t round = 0;
  uint64_t remaining = gf.num_active_edges();
  while (remaining > 0) {
    // Extract up to `budget` active edges from a rotating vertex window.
    std::vector<std::vector<internal::MatchEdge>> local(
        Scheduler::kMaxShards);
    uint64_t taken = 0;
    vertex_id v = window_start;
    vertex_id scanned = 0;
    const uint64_t round_salt = Hash64(seed ^ (round << 40));
    while (scanned < n && taken < budget) {
      vertex_id chunk_end =
          static_cast<vertex_id>(std::min<uint64_t>(n, scanned + 8192));
      vertex_id chunk = chunk_end - scanned;
      parallel_for(0, chunk, [&](size_t i) {
        vertex_id w = static_cast<vertex_id>((v + i) % n);
        if (matched[w].load(std::memory_order_relaxed)) return;
        gf.MapActive(w, [&](vertex_id a, vertex_id b) {
          if (a < b && matched[b].load(std::memory_order_relaxed) == 0) {
            local[shard_id()].push_back(
                {a, b, internal::MatchKey(round_salt, a, b, n)});
          }
        });
      });
      taken = 0;
      for (auto& l : local) taken += l.size();
      v = static_cast<vertex_id>((v + chunk) % n);
      scanned = static_cast<vertex_id>(scanned + chunk);
    }
    window_start = v;
    auto batch = flatten(local);
    if (!batch.empty()) {
      internal::MatchBatch(std::move(batch), reserve, matched, out);
    }
    // Pack out every edge with a matched endpoint.
    remaining = gf.FilterEdges([&](vertex_id a, vertex_id b) {
      return matched[a].load(std::memory_order_relaxed) == 0 &&
             matched[b].load(std::memory_order_relaxed) == 0;
    });
    ++round;
  }
  return out;
}

}  // namespace sage
