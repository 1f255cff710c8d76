// Histogram primitive (Section 4.3.4): counts key occurrences, used to
// aggregate degree updates in k-core and approximate densest subgraph
// without fetch-and-add contention.
//
// Two modes, as in the paper:
//  - sparse: a semisort. One count/prefix-sum/scatter pass
//    (internal::BlockedPartition) hash-partitions the live gathered keys
//    into buckets of about kSemisortBucketKeys keys, and each bucket is
//    counted in its own linear-probing table. O(k) expected work and O(k)
//    transient words for k gathered keys, no shared counters; the
//    (key, count) pairs come out in unspecified order. The caller only
//    uses this when the frontier's incident edge count is below a
//    threshold t = m/c.
//  - dense: when the frontier is large, iterate over *all* vertices and
//    count their neighbors in the frontier (O(m) work, O(n) memory). This
//    is the "dense histogram" optimization described for k-core.
#pragma once

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "core/vertex_subset.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace sage {

namespace internal {

/// The paper's sparse/dense histogram threshold t = m / c, with c = 20.
inline constexpr uint64_t kHistogramThresholdDen = 20;

/// Target keys per semisort bucket: enough to amortize a bucket's table,
/// few enough that the table stays in cache.
inline constexpr size_t kSemisortBucketKeys = 2048;

using KeyCount = std::pair<vertex_id, uint32_t>;

/// Fibonacci hash of a key. The top bits pick the semisort bucket; the 32
/// bits below them pick the slot in that bucket's table.
inline uint64_t KeyHash(vertex_id v) {
  return uint64_t{v} * 0x9e3779b97f4a7c15ULL;
}

/// Counts the keys of in[0, s) other than kNoVertex in the linear-probing
/// table [table, table + size): zeroed slots (count 0 marks an empty one),
/// at least twice as many as keys. Moves the distinct (key, count) pairs to
/// the front of the table and returns how many there are. `bucket_bits` is
/// the number of hash bits the partition already consumed.
inline size_t CountInTable(const vertex_id* in, size_t s,
                           unsigned bucket_bits, KeyCount* table,
                           size_t size) {
  for (size_t i = 0; i < s; ++i) {
    const vertex_id v = in[i];
    if (v == kNoVertex) continue;
    const uint64_t h = (KeyHash(v) << bucket_bits) >> 32;
    size_t j = static_cast<size_t>((h * size) >> 32);
    while (table[j].second != 0 && table[j].first != v) {
      if (++j == size) j = 0;
    }
    table[j].first = v;
    ++table[j].second;
  }
  size_t g = 0;
  // Branch-free: about half the slots are empty, so a branch would miss.
  for (size_t j = 0; j < size; ++j) {
    const KeyCount kc = table[j];
    table[g] = kc;
    g += kc.second != 0 ? 1 : 0;
  }
  return g;
}

}  // namespace internal

/// Sparse histogram: (key, count) for every distinct key of `keys` other
/// than kNoVertex, in unspecified order. A semisort: O(k) expected work and
/// O(k) transient words. Charges are a function of k, the live keys and the
/// distinct keys only, so they do not depend on width or schedule.
inline std::vector<std::pair<vertex_id, uint32_t>> HistogramKeys(
    const std::vector<vertex_id>& keys) {
  using internal::KeyCount;
  const size_t k = keys.size();
  if (k == 0) return {};
  const size_t num_buckets = std::bit_ceil(
      (k + internal::kSemisortBucketKeys - 1) / internal::kSemisortBucketKeys);
  if (num_buckets == 1) {
    std::vector<KeyCount> table(2 * k);
    table.resize(internal::CountInTable(keys.data(), k, 0, table.data(),
                                        table.size()));
    uint64_t live = 0;
    for (const auto& kc : table) live += kc.second;
    // One pass over the keys; writes: the table counts, the output.
    nvram::Cost().ChargeWorkRead(k);
    nvram::Cost().ChargeWorkWrite(live + table.size());
    return table;
  }

  // Partition the live keys by bucket. start[h]: bucket h's first key in
  // `part`; its table starts at slot 2 * start[h] (two slots per key).
  const unsigned bucket_bits = std::countr_zero(num_buckets);
  std::vector<size_t> start(num_buckets + 1);
  size_t live = 0;
  auto part = std::make_unique_for_overwrite<vertex_id[]>(k);
  internal::BlockedPartition(
      k, num_buckets,
      [&](size_t i) {
        return keys[i] == kNoVertex
                   ? num_buckets
                   : static_cast<size_t>(internal::KeyHash(keys[i]) >>
                                         (64 - bucket_bits));
      },
      [&](size_t h, size_t c) {
        start[h] = live;
        live += c;
        return start[h];
      },
      [&](size_t i, size_t, size_t pos) { part[pos] = keys[i]; });
  start[num_buckets] = live;

  // Count each bucket in its own table, then concatenate the distinct pairs.
  std::vector<KeyCount> tables(2 * live);
  std::vector<size_t> distinct(num_buckets + 1, 0);
  parallel_for(
      0, num_buckets,
      [&](size_t h) {
        distinct[h] = internal::CountInTable(
            part.get() + start[h], start[h + 1] - start[h], bucket_bits,
            tables.data() + 2 * start[h], 2 * (start[h + 1] - start[h]));
      },
      1);
  size_t groups = 0;
  for (size_t h = 0; h < num_buckets; ++h) {
    size_t g = distinct[h];
    distinct[h] = groups;
    groups += g;
  }
  distinct[num_buckets] = groups;
  std::vector<KeyCount> out(groups);
  parallel_for(
      0, num_buckets,
      [&](size_t h) {
        std::copy_n(tables.begin() + 2 * start[h],
                    distinct[h + 1] - distinct[h], out.begin() + distinct[h]);
      },
      1);
  // Reads: the count and scatter passes over the k gathered keys, the table
  // pass over the live ones. Writes: the partition, the table counts, the
  // output.
  nvram::Cost().ChargeWorkRead(2 * k + live);
  nvram::Cost().ChargeWorkWrite(2 * live + groups);
  return out;
}

/// Gathers, for each member u of `frontier`, the neighbors v of u with
/// pred(v), and histograms them: the result counts, per vertex v, how many
/// frontier neighbors it has. Sparse path; O(sum deg(frontier)) transient.
template <typename GraphT, typename Pred>
std::vector<std::pair<vertex_id, uint32_t>> SparseNeighborHistogram(
    const GraphT& g, const VertexSubset& frontier, const Pred& pred) {
  SAGE_DCHECK(!frontier.is_dense());
  const auto& ids = frontier.ids();
  std::vector<uint64_t> offs(ids.size());
  parallel_for(0, ids.size(),
               [&](size_t i) { offs[i] = g.degree_uncharged(ids[i]); });
  uint64_t total = scan_add_inplace(offs);
  std::vector<vertex_id> keys(total);
  parallel_for_batched(0, ids.size(), [&](size_t i) {
    uint64_t j = offs[i];
    g.MapNeighbors(ids[i], [&](vertex_id, vertex_id v, weight_t) {
      keys[j++] = pred(v) ? v : kNoVertex;
    });
  });
  return HistogramKeys(keys);
}

/// Dense histogram: for every vertex v with pred(v), counts v's neighbors
/// inside the (dense) frontier. Returns only the non-zero (v, count) pairs.
/// O(n + m) work, O(n) words of memory.
template <typename GraphT, typename Pred>
std::vector<std::pair<vertex_id, uint32_t>> DenseNeighborHistogram(
    const GraphT& g, const VertexSubset& frontier, const Pred& pred) {
  SAGE_DCHECK(frontier.is_dense());
  const vertex_id n = g.num_vertices();
  const auto& flags = frontier.flags();
  std::vector<uint32_t> counts(n, 0);
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
  auto idx =
      pack_index<vertex_id>(n, [&](size_t v) { return counts[v] > 0; });
  return tabulate<std::pair<vertex_id, uint32_t>>(idx.size(), [&](size_t i) {
    return std::make_pair(idx[i], counts[idx[i]]);
  });
}

/// Direction-optimizing neighbor histogram: picks the sparse or dense path
/// based on the frontier's incident edge count vs. the threshold
/// t = m / kHistogramThresholdDen. May densify/sparsify `frontier`.
template <typename GraphT, typename Pred>
std::vector<std::pair<vertex_id, uint32_t>> NeighborHistogram(
    const GraphT& g, VertexSubset& frontier, const Pred& pred) {
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
    return DenseNeighborHistogram(g, frontier, pred);
  }
  frontier.ToSparse();
  return SparseNeighborHistogram(g, frontier, pred);
}

}  // namespace sage
