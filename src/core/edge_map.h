// edgeMap: the central traversal primitive of Ligra/GBBS/Sage, with
// direction optimization [8] and three sparse (push) implementations:
//
//   - EdgeMapSparse   (Ligra [85]):  allocates an output slot per incident
//     edge - O(sum deg(U)) = O(m) intermediate words in the worst case;
//   - EdgeMapBlocked  (GBBS  [37]):  same O(m) allocation but writes only
//     ~|output| + #blocks cache lines (cache-efficient, memory-inefficient);
//   - EdgeMapChunked  (Sage, Section 4.1 / Algorithm 1): group/block/chunk
//     decomposition with thread-local chunk pools - O(n) words of DRAM,
//     same work, depth, and cache behaviour as EdgeMapBlocked.
//
// The user supplies a functor F with the Ligra interface:
//   bool update(u, v, w);        applied in dense (pull) traversals
//   bool updateAtomic(u, v, w);  applied in sparse (push) traversals
//   bool cond(v);                "should v still be visited?"
//
// Direction optimization [8] picks a dense round when |U| + deg(U) exceeds
// m / 20, betting that a pull scan stops at v's first successful update.
// A functor whose cond() never turns false (the relaxation kernels:
// Bellman-Ford, wBFS, widest path) loses that bet - every pull round would
// read all m edges - so it declares
//   static constexpr bool kNoEarlyExit = true;
// and every dense round of it runs *dense-forward* instead (Ligra's
// dense_forward): walk the frontier's members, apply cond/updateAtomic
// along their out-edges, and set the next-round flags, for O(n + deg(U))
// reads. That includes TraversalMode::kDenseOnly, and it needs no symmetric
// graph. It relies on the contract sparse rounds already need: updateAtomic
// returns true at most once per target per round, so each next-round flag
// has a single writer. Functors that declare nothing keep the pull round.
//
// All variants charge the PSAM cost model: graph reads through the Graph
// accessors, DRAM traffic for frontier flags and outputs, and report
// intermediate allocations to the MemoryTracker (Table 5 of the paper).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/chunk_pool.h"
#include "core/vertex_subset.h"
#include "graph/compressed_graph.h"
#include "graph/graph.h"
#include "graph/prefetch.h"
#include "nvram/execution_context.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Which sparse (push) implementation EdgeMap uses.
enum class SparseVariant : uint8_t {
  kSparse = 0,   // Ligra's edgeMapSparse
  kBlocked = 1,  // GBBS's edgeMapBlocked
  kChunked = 2,  // Sage's edgeMapChunked (this paper)
};

inline const char* SparseVariantName(SparseVariant v) {
  switch (v) {
    case SparseVariant::kSparse:
      return "edgeMapSparse";
    case SparseVariant::kBlocked:
      return "edgeMapBlocked";
    case SparseVariant::kChunked:
      return "edgeMapChunked";
  }
  return "unknown";
}

/// Direction selection for EdgeMap.
enum class TraversalMode : uint8_t {
  kAuto = 0,        // direction-optimizing (Beamer) - the default
  kSparseOnly = 1,  // always push
  kDenseOnly = 2,   // always dense: pull, or forward for kNoEarlyExit functors
};

/// Options controlling EdgeMap.
struct EdgeMapOptions {
  SparseVariant sparse_variant = SparseVariant::kChunked;
  TraversalMode mode = TraversalMode::kAuto;
};

namespace internal {

inline uint64_t u64(size_t x) { return static_cast<uint64_t>(x); }

/// Beamer's rule: a round goes dense when |U| + deg(U) > m /
/// kDenseThresholdDen. The direction optimizer only engages once
/// m >= kDenseThresholdDen; tiny graphs stay on the sparse path (the
/// truncated threshold would otherwise send nearly every frontier dense).
inline constexpr uint64_t kDenseThresholdDen = 20;

/// True when F declares `static constexpr bool kNoEarlyExit = true`: its
/// cond() never stops a pull scan, so dense rounds run dense-forward.
template <typename F>
constexpr bool NoEarlyExit() {
  if constexpr (requires { F::kNoEarlyExit; }) {
    return F::kNoEarlyExit;
  } else {
    return false;
  }
}

/// Sum of out-degrees over the frontier (charges the offset reads, summed
/// per block by reduce's charge batches).
template <typename GraphT>
uint64_t FrontierDegree(const GraphT& g, const VertexSubset& frontier) {
  if (frontier.is_dense()) {
    const auto& flags = frontier.flags();
    return reduce_add<uint64_t>(frontier.num_total(), [&](size_t v) {
      return flags[v] ? g.degree(static_cast<vertex_id>(v)) : 0;
    });
  }
  const auto& ids = frontier.ids();
  return reduce_add<uint64_t>(ids.size(),
                              [&](size_t i) { return g.degree(ids[i]); });
}

/// Dense (pull) traversal: for every vertex v with cond(v), scan neighbors
/// until an update succeeds or cond(v) becomes false.
template <typename GraphT, typename F>
VertexSubset EdgeMapDense(const GraphT& g, const VertexSubset& frontier,
                          F& f) {
  const vertex_id n = g.num_vertices();
  auto& cm = nvram::Cost();
  const auto& in_frontier = frontier.flags();
  std::vector<uint8_t> next(n, 0);
  parallel_for_batched(0, n, [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    if (!f.cond(v)) return;
    uint64_t examined = 0;
    g.MapNeighborsWhile(v, [&](vertex_id, vertex_id u, weight_t w) {
      ++examined;
      if (in_frontier[u] && f.update(u, v, w)) next[vi] = 1;
      return f.cond(v);
    });
    // Frontier-flag probes are DRAM work reads; one write if v activated.
    cm.ChargeWorkRead(examined, u64(vi));
  });
  cm.ChargeWorkWrite(n / 8 + 1);  // output flag array, word-granular
  size_t count =
      reduce_add<size_t>(n, [&](size_t v) { return next[v] ? 1 : 0; });
  return VertexSubset::Dense(n, std::move(next), count);
}

/// Dense-forward traversal (functors with kNoEarlyExit): push along the
/// out-edges of the (sparse) frontier's members only, into a dense
/// next-round flag array. Each next[v] has a single writer because
/// updateAtomic succeeds at most once per target per round.
template <typename GraphT, typename F>
VertexSubset EdgeMapDenseForward(const GraphT& g, const VertexSubset& frontier,
                                 F& f) {
  const vertex_id n = g.num_vertices();
  auto& cm = nvram::Cost();
  const auto& ids = frontier.ids();
  std::vector<uint8_t> next(n, 0);
  parallel_for_batched(0, ids.size(), [&](size_t i) {
    const vertex_id u = ids[i];
    uint64_t examined = 0;
    g.MapNeighbors(u, [&](vertex_id, vertex_id v, weight_t w) {
      ++examined;
      if (f.cond(v) && f.updateAtomic(u, v, w)) next[v] = 1;
    });
    cm.ChargeWorkRead(examined, u64(u));  // cond probes
  });
  cm.ChargeWorkWrite(n / 8 + 1);  // output flag array, word-granular
  size_t count =
      reduce_add<size_t>(n, [&](size_t v) { return next[v] ? 1 : 0; });
  return VertexSubset::Dense(n, std::move(next), count);
}

/// Ligra-style sparse traversal: one output slot per incident edge.
template <typename GraphT, typename F>
VertexSubset EdgeMapSparse(const GraphT& g, const VertexSubset& frontier,
                           F& f, uint64_t frontier_degree) {
  const auto& ids = frontier.ids();
  auto& cm = nvram::Cost();
  std::vector<uint64_t> offs(ids.size());
  parallel_for(0, ids.size(),
               [&](size_t i) { offs[i] = g.degree_uncharged(ids[i]); });
  uint64_t total = scan_add_inplace(offs);
  SAGE_DCHECK(total == frontier_degree);
  (void)frontier_degree;
  // The O(sum deg(U)) intermediate array that violates the PSAM budget.
  nvram::TrackedAllocation scratch(total * sizeof(vertex_id));
  std::vector<vertex_id> targets(total);
  parallel_for(0, ids.size(), [&](size_t i) {
    vertex_id u = ids[i];
    uint64_t j = offs[i];
    g.MapNeighbors(u, [&](vertex_id, vertex_id v, weight_t w) {
      targets[j++] = (f.cond(v) && f.updateAtomic(u, v, w)) ? v : kNoVertex;
    });
  });
  cm.ChargeWorkWrite(total);  // every slot is written
  cm.ChargeWorkRead(total);   // cond probes
  auto out = filter(targets, [](vertex_id v) { return v != kNoVertex; });
  cm.ChargeWorkRead(total);   // filter re-reads the scratch array
  cm.ChargeWorkWrite(out.size());
  return VertexSubset::Sparse(g.num_vertices(), std::move(out));
}

/// GBBS-style blocked sparse traversal: O(sum deg(U)) allocation, but only
/// ~|output| + #blocks cache lines are written.
template <typename GraphT, typename F>
VertexSubset EdgeMapBlocked(const GraphT& g, const VertexSubset& frontier,
                            F& f, uint64_t frontier_degree) {
  const auto& ids = frontier.ids();
  auto& cm = nvram::Cost();
  std::vector<uint64_t> offs(ids.size());
  parallel_for(0, ids.size(),
               [&](size_t i) { offs[i] = g.degree_uncharged(ids[i]); });
  uint64_t total = scan_add_inplace(offs);
  (void)frontier_degree;
  if (total == 0) return VertexSubset::Empty(g.num_vertices());

  const uint64_t kBlock = 4096;
  uint64_t num_blocks = (total + kBlock - 1) / kBlock;
  // Memory-inefficient: staging is proportional to incident edges.
  nvram::TrackedAllocation scratch(total * sizeof(vertex_id) +
                                   num_blocks * sizeof(uint64_t));
  std::vector<vertex_id> staging(total);
  std::vector<uint64_t> block_counts(num_blocks, 0);
  parallel_for(
      0, num_blocks,
      [&](size_t b) {
        uint64_t lo = b * kBlock, hi = std::min(total, lo + kBlock);
        // Locate the first frontier vertex overlapping edge index lo.
        size_t i = static_cast<size_t>(
            std::upper_bound(offs.begin(), offs.end(), lo) - offs.begin() - 1);
        uint64_t out_pos = lo;
        uint64_t cursor = lo;
        while (cursor < hi && i < ids.size()) {
          vertex_id u = ids[i];
          uint64_t u_start = offs[i];
          uint64_t u_deg = g.degree_uncharged(u);
          uint64_t e_lo = cursor - u_start;
          uint64_t e_hi = std::min<uint64_t>(u_deg, hi - u_start);
          g.MapNeighborsRange(u, e_lo, e_hi,
                              [&](vertex_id, vertex_id v, weight_t w) {
                                if (f.cond(v) && f.updateAtomic(u, v, w)) {
                                  staging[out_pos++] = v;
                                }
                              });
          cursor = u_start + e_hi;
          ++i;
        }
        block_counts[b] = out_pos - lo;
        cm.ChargeWorkRead(hi - lo);       // cond probes
        cm.ChargeWorkWrite(out_pos - lo); // compact writes only
      },
      1);
  uint64_t total_out = scan_add_inplace(block_counts);
  std::vector<vertex_id> out(total_out);
  parallel_for(
      0, num_blocks,
      [&](size_t b) {
        uint64_t src = b * kBlock;
        uint64_t dst = block_counts[b];
        uint64_t cnt = (b + 1 < num_blocks ? block_counts[b + 1] : total_out) -
                       dst;
        std::copy(staging.begin() + src, staging.begin() + src + cnt,
                  out.begin() + dst);
      },
      1);
  cm.ChargeWorkWrite(total_out);
  return VertexSubset::Sparse(g.num_vertices(), std::move(out));
}

/// Sage's edgeMapChunked (Algorithm 1): O(n) words of intermediate DRAM.
template <typename GraphT, typename F>
VertexSubset EdgeMapChunked(const GraphT& g, const VertexSubset& frontier,
                            F& f, uint64_t frontier_degree) {
  const auto& ids = frontier.ids();
  const vertex_id n = g.num_vertices();
  auto& cm = nvram::Cost();
  const uint64_t dU = frontier_degree;
  if (dU == 0) return VertexSubset::Empty(n);

  // Underlying block size of the graph: the average degree for uncompressed
  // inputs, the compression block size for compressed ones (Section 4.1).
  uint64_t gb_size;
  if constexpr (GraphT::kCompressed) {
    gb_size = g.block_size();
  } else {
    gb_size = std::max<uint64_t>(1, static_cast<uint64_t>(g.avg_degree()));
  }

  // --- Block decomposition (Algorithm 1, lines 11-13). ---
  std::vector<uint64_t> vtx_blocks(ids.size());
  parallel_for(0, ids.size(), [&](size_t i) {
    uint64_t d = g.degree_uncharged(ids[i]);
    vtx_blocks[i] = (d + gb_size - 1) / gb_size;
  });
  uint64_t num_blocks = scan_add_inplace(vtx_blocks);
  // Block arrays are O(|U| + dU / d_avg) = O(n) words.
  nvram::TrackedAllocation scratch(
      num_blocks * (sizeof(vertex_id) + sizeof(uint32_t) + sizeof(uint64_t)));
  std::vector<vertex_id> block_vertex(num_blocks);
  std::vector<uint32_t> block_index(num_blocks);
  std::vector<uint64_t> block_prefix(num_blocks);  // O: block degree, scanned
  parallel_for(0, ids.size(), [&](size_t i) {
    vertex_id u = ids[i];
    uint64_t d = g.degree_uncharged(u);
    uint64_t first = vtx_blocks[i];
    uint64_t nb = (d + gb_size - 1) / gb_size;
    for (uint64_t b = 0; b < nb; ++b) {
      block_vertex[first + b] = u;
      block_index[first + b] = static_cast<uint32_t>(b);
      block_prefix[first + b] =
          std::min<uint64_t>(gb_size, d - b * gb_size);
    }
  });
  uint64_t check_total = scan_add_inplace(block_prefix);
  SAGE_DCHECK(check_total == dU);
  (void)check_total;

  // --- Work assignment into groups (lines 14-18). ---
  const uint64_t min_group_size = std::max<uint64_t>(4096, gb_size);
  const uint64_t p = static_cast<uint64_t>(num_workers());
  // At most 8P groups, each holding at most one partly filled chunk of at
  // most n / 8P ids, so chunk memory stays within |output| + n words. The
  // power of two matches the pool's quantization (ChunkPool::Get).
  const uint64_t chunk_capacity =
      std::bit_floor(std::clamp<uint64_t>(u64(n) / (8 * p), 64, 4096));
  uint64_t group_size = std::max<uint64_t>((dU + 8 * p - 1) / (8 * p),
                                           min_group_size);
  uint64_t num_groups = (dU + group_size - 1) / group_size;
  std::vector<uint64_t> group_first_block(num_groups + 1);
  parallel_for(0, num_groups, [&](size_t i) {
    uint64_t target = static_cast<uint64_t>(i) * group_size;
    group_first_block[i] = static_cast<uint64_t>(
        std::upper_bound(block_prefix.begin(), block_prefix.end(), target) -
        block_prefix.begin() - 1);
  });
  group_first_block[0] = 0;
  group_first_block[num_groups] = num_blocks;

  // --- Per-group traversal into pooled chunks (lines 19-23). ---
  auto& pool = ChunkPool::Get(chunk_capacity);
  std::vector<std::vector<std::unique_ptr<Chunk>>> group_chunks(num_groups);
  parallel_for_batched(
      0, num_groups,
      [&](size_t gi) {
        auto& chunks = group_chunks[gi];
        Chunk* cur = nullptr;
        uint64_t emitted = 0, examined = 0;
        for (uint64_t j = group_first_block[gi];
             j < group_first_block[gi + 1]; ++j) {
          vertex_id u = block_vertex[j];
          uint64_t b = block_index[j];
          uint64_t d = g.degree_uncharged(u);
          uint64_t e_lo = b * gb_size;
          uint64_t e_hi = std::min<uint64_t>(d, e_lo + gb_size);
          auto emit = [&](vertex_id src, vertex_id v, weight_t w) {
            if (f.cond(v) && f.updateAtomic(src, v, w)) {
              // A group takes a chunk only once it has something to emit.
              if (cur == nullptr || cur->Full()) {
                chunks.push_back(pool.Alloc());
                cur = chunks.back().get();
              }
              cur->Push(v);
              ++emitted;
            }
            ++examined;
          };
          if constexpr (GraphT::kCompressed) {
            vertex_id nbrs[CompressedGraph::kMaxBlockSize];
            weight_t wts[CompressedGraph::kMaxBlockSize];
            uint32_t k = g.DecodeBlock(u, b, nbrs, wts);
            for (uint32_t e = 0; e < k; ++e) {
              emit(u, nbrs[e], g.weighted() ? wts[e] : weight_t{1});
            }
          } else {
            g.MapNeighborsRange(u, e_lo, e_hi, emit);
          }
        }
        cm.ChargeWorkRead(examined);
        cm.ChargeWorkWrite(emitted);
      },
      1);

  // --- Aggregate chunks into a flat output (lines 24-31). ---
  std::vector<Chunk*> all_chunks;
  for (auto& chunks : group_chunks) {
    for (auto& c : chunks) all_chunks.push_back(c.get());
  }
  std::vector<uint64_t> chunk_offsets(all_chunks.size());
  parallel_for(0, all_chunks.size(),
               [&](size_t i) { chunk_offsets[i] = all_chunks[i]->size; });
  uint64_t out_size = scan_add_inplace(chunk_offsets);
  std::vector<vertex_id> out(out_size);
  parallel_for(
      0, all_chunks.size(),
      [&](size_t i) {
        Chunk* c = all_chunks[i];
        std::copy(c->data.begin(), c->data.begin() + c->size,
                  out.begin() + chunk_offsets[i]);
      },
      1);
  cm.ChargeWorkWrite(out_size);
  for (auto& chunks : group_chunks) {
    for (auto& c : chunks) pool.Release(std::move(c));
  }
  return VertexSubset::Sparse(n, std::move(out));
}

}  // namespace internal

/// Direction-optimizing edgeMap. Applies F along edges out of `frontier`
/// and returns the set of vertices v for which an update returned true.
/// May convert `frontier` between sparse and dense representations.
template <typename GraphT, typename F>
VertexSubset EdgeMap(const GraphT& g, VertexSubset& frontier, F f,
                     const EdgeMapOptions& opts = EdgeMapOptions{}) {
  // Interrupt checkpoint: one poll per traversal round. Throws
  // QueryInterrupt on the run's root thread when the query's deadline has
  // passed or it was cancelled; free for uninterruptible runs.
  const nvram::ExecutionContext& exec = nvram::ExecutionContext::Current();
  exec.CheckInterrupt();
  if (frontier.IsEmpty()) return VertexSubset::Empty(g.num_vertices());
  uint64_t deg = internal::FrontierDegree(g, frontier);
  const uint64_t m = g.num_edges();
  constexpr uint64_t den = internal::kDenseThresholdDen;
  const uint64_t threshold = std::max<uint64_t>(m / den, 1);
  // Direction optimization is a constant-factor heuristic over the m/den
  // ratio; when m < den that ratio truncates to nothing and the clamped
  // threshold of 1 would send nearly every frontier dense, so tiny graphs
  // stay on the sparse (work-efficient) path.
  bool use_dense = opts.mode == TraversalMode::kDenseOnly ||
                   (opts.mode == TraversalMode::kAuto && m >= den &&
                    deg + frontier.size() > threshold);
  // Only a pull round scans the whole edge region; sparse and dense-forward
  // rounds walk the frontier's ids and read just their adjacency lists.
  const bool pull = use_dense && !internal::NoEarlyExit<F>();
  if (pull) {
    frontier.ToDense();
  } else {
    frontier.ToSparse();
  }
  if constexpr (!GraphT::kCompressed) {
    // Hand the upcoming round's page frontier to the run's prefetch
    // pipeline (graph/prefetch.h) before traversal starts, so
    // madvise(MADV_WILLNEED) readahead overlaps with edge processing.
    Prefetcher* prefetcher = exec.prefetcher();
    if (prefetcher != nullptr && prefetcher->Covers(g)) {
      if (pull) {
        prefetcher->EnqueueDenseWave();
      } else {
        prefetcher->EnqueueWave(frontier.ids());
      }
    }
  }
  if (use_dense && !pull) {
    return internal::EdgeMapDenseForward(g, frontier, f);
  }
  if (pull) {
    SAGE_CHECK_MSG(g.symmetric(),
                   "dense (pull) traversal requires a symmetric graph");
    return internal::EdgeMapDense(g, frontier, f);
  }
  switch (opts.sparse_variant) {
    case SparseVariant::kSparse:
      return internal::EdgeMapSparse(g, frontier, f, deg);
    case SparseVariant::kBlocked:
      return internal::EdgeMapBlocked(g, frontier, f, deg);
    case SparseVariant::kChunked:
      break;
  }
  return internal::EdgeMapChunked(g, frontier, f, deg);
}

}  // namespace sage
