// Neighbor histogram (Section 4.3.4): counts, for one round of a peeling
// algorithm (k-core, approximate densest subgraph), how many frontier
// neighbors each live vertex has.
//
// The counts go into a caller-held array of n words that lives for the
// whole run: it is zero on entry, the histogram raises the counts of the
// vertices it lists, and the caller reads and zeroes each listed count
// before the next round. Two paths, as in the paper:
//  - sparse: each frontier vertex adds one to the counter of each live
//    neighbor with a relaxed fetch-and-add; the add that finds zero lists
//    the neighbor. O(deg(U)) work and no transient array beyond the list.
//    Each frontier vertex runs two passes in its worker's own list, and
//    neither branches on the data: the first copies every neighbor and
//    advances by pred(v), so the live ones stay; the second fetch-and-adds
//    each live one and advances when the old count was zero, so the listed
//    ones stay. Tasks cover about kHistogramTaskEdges edges of the
//    frontier, so a few hubs split across workers as many small vertices
//    do. A vertex that gains d counts in a round takes d atomic steps on
//    one word. Used when the frontier's |U| + deg(U) is at most the
//    threshold t = m/c.
//  - dense: when the frontier is large, iterate over *all* live vertices
//    and count their neighbors in the frontier's flags (O(n + m) work, no
//    atomics), writing the counts into the same array. This is the "dense
//    histogram" optimization described for k-core.
// Charges are a function of the round's sets only, so they do not depend
// on width or schedule.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/vertex_subset.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

namespace internal {

/// The paper's sparse/dense histogram threshold t = m / c, with c = 20.
inline constexpr uint64_t kHistogramThresholdDen = 20;

/// Edges per task of the sparse path.
inline constexpr uint64_t kHistogramTaskEdges = 4096;

/// Concatenates per-shard lists in shard order; moves the only non-empty
/// one. Uncharged, so the charges do not follow how many shards the
/// schedule used; the caller charges one write per listed vertex.
inline std::vector<vertex_id> ConcatLists(
    std::vector<std::vector<vertex_id>>& lists) {
  std::vector<std::vector<vertex_id>*> parts;
  size_t total = 0;
  for (auto& l : lists) {
    if (l.empty()) continue;
    parts.push_back(&l);
    total += l.size();
  }
  if (parts.size() == 1) return std::move(*parts[0]);
  std::vector<size_t> at(parts.size());
  for (size_t p = 0, pos = 0; p < parts.size(); ++p) {
    at[p] = pos;
    pos += parts[p]->size();
  }
  std::vector<vertex_id> out(total);
  parallel_for(
      0, parts.size(),
      [&](size_t p) {
        std::copy(parts[p]->begin(), parts[p]->end(), out.begin() + at[p]);
      },
      1);
  return out;
}

}  // namespace internal

/// Sparse path: for each member u of `frontier` and each neighbor v of u
/// with pred(v), adds one to counts[v]. Returns the vertices whose count
/// rose from zero, each once, in unspecified order. `frontier_edges` is the
/// frontier's degree sum; it sizes the tasks. Reads: a probe per gathered
/// neighbor. Writes: one per live neighbor (the fetch-and-add, a
/// read-modify-write of one word) and one per listed vertex.
template <typename GraphT, typename Pred>
std::vector<vertex_id> SparseNeighborHistogram(const GraphT& g,
                                               const VertexSubset& frontier,
                                               const Pred& pred,
                                               std::vector<uint32_t>& counts,
                                               uint64_t frontier_edges) {
  SAGE_DCHECK(!frontier.is_dense());
  const auto& ids = frontier.ids();
  const size_t grain = std::max<uint64_t>(
      1, ids.size() * internal::kHistogramTaskEdges /
             std::max<uint64_t>(frontier_edges, 1));
  std::vector<std::vector<vertex_id>> lists(Scheduler::kMaxShards);
  parallel_for_batched(
      0, ids.size(),
      [&](size_t i) {
        auto& list = lists[shard_id()];
        const vertex_id u = ids[i];
        const uint32_t deg = g.degree_uncharged(u);
        const size_t first = list.size();
        list.resize(first + deg);
        // Keep the live neighbors, then of those the ones counted first.
        size_t live_end = first;
        g.MapNeighbors(u, [&](vertex_id, vertex_id v, weight_t) {
          list[live_end] = v;
          live_end += pred(v) ? 1 : 0;
        });
        size_t listed_end = first;
        for (size_t j = first; j < live_end; ++j) {
          const vertex_id v = list[j];
          list[listed_end] = v;
          listed_end += std::atomic_ref<uint32_t>(counts[v]).fetch_add(
                            1, std::memory_order_relaxed) == 0
                            ? 1
                            : 0;
        }
        list.resize(listed_end);
        nvram::Cost().ChargeWorkRead(deg);
        nvram::Cost().ChargeWorkWrite(live_end - first);
      },
      grain);
  auto listed = internal::ConcatLists(lists);
  nvram::Cost().ChargeWorkWrite(listed.size());
  return listed;
}

/// Dense path: for every vertex v with pred(v), writes the number of v's
/// neighbors inside the (dense) frontier to counts[v]. Returns the vertices
/// with a non-zero count, in increasing order. O(n + m) work.
template <typename GraphT, typename Pred>
std::vector<vertex_id> DenseNeighborHistogram(const GraphT& g,
                                              const VertexSubset& frontier,
                                              const Pred& pred,
                                              std::vector<uint32_t>& counts) {
  SAGE_DCHECK(frontier.is_dense());
  const vertex_id n = g.num_vertices();
  const auto& flags = frontier.flags();
  parallel_for_batched(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    if (!pred(v)) return;
    uint32_t c = 0;
    g.MapNeighbors(v, [&](vertex_id, vertex_id u, weight_t) {
      c += flags[u] ? 1 : 0;
    });
    counts[vi] = c;
    nvram::Cost().ChargeWorkRead(g.degree_uncharged(v));
  });
  nvram::Cost().ChargeWorkWrite(n / 2);
  auto listed =
      pack_index<vertex_id>(n, [&](size_t v) { return counts[v] > 0; });
  nvram::Cost().ChargeWorkWrite(listed.size());
  return listed;
}

/// Direction-optimizing neighbor histogram: counts, into `counts` (n words,
/// zero on entry), each vertex v's neighbors in `frontier` for every v with
/// pred(v), and returns the vertices with a non-zero count, each once. The
/// caller must read and zero those counts before the next call. Picks the
/// sparse or dense path by the frontier's incident edge count vs. the
/// threshold t = m / kHistogramThresholdDen. May densify/sparsify
/// `frontier`.
template <typename GraphT, typename Pred>
std::vector<vertex_id> NeighborHistogram(const GraphT& g,
                                         VertexSubset& frontier,
                                         const Pred& pred,
                                         std::vector<uint32_t>& counts) {
  SAGE_DCHECK(counts.size() == g.num_vertices());
  if (frontier.IsEmpty()) return {};
  uint64_t deg;
  if (frontier.is_dense()) {
    const auto& flags = frontier.flags();
    deg = reduce_add<uint64_t>(frontier.num_total(), [&](size_t v) {
      return flags[v] ? g.degree(static_cast<vertex_id>(v)) : 0;
    });
  } else {
    const auto& ids = frontier.ids();
    deg = reduce_add<uint64_t>(ids.size(),
                               [&](size_t i) { return g.degree(ids[i]); });
  }
  uint64_t threshold = g.num_edges() / internal::kHistogramThresholdDen;
  if (deg + frontier.size() > std::max<uint64_t>(threshold, 1)) {
    frontier.ToDense();
    return DenseNeighborHistogram(g, frontier, pred, counts);
  }
  frontier.ToSparse();
  return SparseNeighborHistogram(g, frontier, pred, counts, deg);
}

}  // namespace sage
