// graphFilter: Sage's semi-asymmetric edge-deletion structure (Section 4.2).
//
// Algorithms that "delete" edges as they go (maximal matching, approximate
// set cover, triangle counting, biconnectivity) traditionally pack the
// adjacency lists in place - NVRAM writes that cost omega each. The filter
// instead keeps one DRAM bit per edge, organized in blocks that mirror the
// graph's logical edge blocks:
//
//   NVRAM: original CSR / compressed CSR, never written.
//   DRAM:  per vertex, a contiguous region of filter blocks; each block has
//          F_B bits (one per edge of the corresponding logical block), its
//          original block id, and an offset = #active edges in preceding
//          blocks of the vertex. Blocks whose bits are all zero are packed
//          out of the prefix once a constant fraction empties. A dirty bit
//          per vertex marks vertices whose reverse edges were filtered.
//
// Total DRAM: O(n) words + O(m) bits = O(n + m / log n) words, the relaxed
// PSAM budget. Bit iteration uses the tzcnt/blsr idiom (std::countr_zero /
// x & (x-1)) to process a word with k set bits in O(k) instructions.
//
// For compressed graphs the filter block size must equal the compression
// block size so blocks stay independently decodable.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "core/vertex_subset.h"
#include "graph/compressed_graph.h"
#include "graph/graph.h"
#include "nvram/execution_context.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

/// Mutable bit-packed view of an immutable graph's edges.
template <typename GraphT>
class GraphFilter {
 public:
  /// Creates a filter over `g` with all edges active. `block_size` is F_B in
  /// edges; 0 picks the default (the compression block size for compressed
  /// graphs, 64 for uncompressed).
  explicit GraphFilter(const GraphT& g, uint32_t block_size = 0)
      : g_(g), tracked_(0) {
    if constexpr (GraphT::kCompressed) {
      fb_ = block_size == 0 ? g.block_size() : block_size;
      SAGE_CHECK_MSG(fb_ == g.block_size(),
                     "filter block size must equal the compression block "
                     "size for compressed graphs");
    } else {
      fb_ = block_size == 0 ? 64 : block_size;
    }
    words_per_block_ = (fb_ + 63) / 64;
    const vertex_id n = g.num_vertices();
    degree_ = tabulate<vertex_id>(
        n, [&](size_t v) {
          return g.degree_uncharged(static_cast<vertex_id>(v));
        });
    num_blocks_ = tabulate<uint32_t>(n, [&](size_t v) {
      return static_cast<uint32_t>((uint64_t{degree_[v]} + fb_ - 1) / fb_);
    });
    std::vector<uint64_t> firsts(n);
    parallel_for(0, n, [&](size_t v) { firsts[v] = num_blocks_[v]; });
    uint64_t total_blocks = scan_add_inplace(firsts);
    first_block_ = std::move(firsts);
    first_block_.push_back(total_blocks);
    bits_.assign(total_blocks * words_per_block_, 0);
    block_orig_.assign(total_blocks, 0);
    block_offset_.assign(total_blocks, 0);
    dirty_.assign(n, 0);
    parallel_for(0, n, [&](size_t vi) {
      vertex_id v = static_cast<vertex_id>(vi);
      uint64_t d = degree_[v];
      uint64_t first = first_block_[vi];
      for (uint32_t b = 0; b < num_blocks_[vi]; ++b) {
        block_orig_[first + b] = b;
        block_offset_[first + b] = uint64_t{b} * fb_;
        uint64_t remaining = d - uint64_t{b} * fb_;
        uint64_t in_block = std::min<uint64_t>(remaining, fb_);
        uint64_t* w = BlockWords(first + b);
        for (uint32_t k = 0; k < words_per_block_; ++k) {
          uint64_t bits_here =
              std::min<uint64_t>(64, in_block > uint64_t{k} * 64
                                         ? in_block - uint64_t{k} * 64
                                         : 0);
          w[k] = bits_here == 64 ? ~0ULL : ((1ULL << bits_here) - 1);
        }
      }
    });
    tracked_.Resize(MemoryBytes());
    // Creating the filter writes the DRAM structure once: O(m/64 + blocks).
    nvram::Cost().ChargeWorkWrite(bits_.size() +
                                            2 * total_blocks + 2 * n);
  }

  /// Filter block size in edges (F_B).
  uint32_t block_size() const { return fb_; }

  vertex_id num_vertices() const { return g_.num_vertices(); }

  /// Current number of active edges incident to v.
  vertex_id degree(vertex_id v) const {
    nvram::Cost().ChargeWorkRead(1);
    return degree_[v];
  }
  vertex_id degree_uncharged(vertex_id v) const { return degree_[v]; }

  /// Total active edges (parallel reduction over vertices).
  uint64_t num_active_edges() const {
    return reduce_add<uint64_t>(degree_.size(),
                                [&](size_t v) { return degree_[v]; });
  }

  /// True if some pack cleared an edge pointing *to* v since the last
  /// ClearDirty (paper: used to lazily synchronize symmetric filters).
  bool IsDirty(vertex_id v) const { return dirty_[v] != 0; }
  void ClearDirty() {
    parallel_for(0, dirty_.size(), [&](size_t v) { dirty_[v] = 0; });
  }

  /// Applies f(v, u) to every active edge of v, in block order (ascending
  /// neighbor order, since blocks and bits follow the sorted CSR).
  template <typename F>
  void MapActive(vertex_id v, const F& f) const {
    uint64_t first = first_block_[v];
    for (uint32_t k = 0; k < num_blocks_[v]; ++k) {
      nvram::Cost().ChargeWorkRead(words_per_block_ + 2);  // bits + metadata
      ForEachActive(v, first + k,
                    [&](uint32_t, uint32_t, vertex_id u) { f(v, u); });
    }
  }

  /// Decodes the active neighbors of v into out (caller provides >= degree(v)
  /// capacity). Returns the count. Neighbors are sorted ascending.
  size_t ActiveNeighbors(vertex_id v, vertex_id* out) const {
    size_t cnt = 0;
    MapActive(v, [&](vertex_id, vertex_id u) { out[cnt++] = u; });
    return cnt;
  }

  /// Removes active edges (v, u) of v for which pred(v, u) is false.
  /// Marks u dirty for every removed edge. Updates degree, block offsets,
  /// and packs out empty blocks when >= 1/4 of the blocks are empty.
  template <typename Pred>
  void PackVertex(vertex_id v, const Pred& pred) {
    auto& cm = nvram::Cost();
    uint64_t first = first_block_[v];
    uint32_t nb = num_blocks_[v];
    if (nb == 0) return;
    uint64_t cleared_total = 0;
    uint32_t nonempty = 0;
    for (uint32_t k = 0; k < nb; ++k) {
      uint64_t blk = first + k;
      uint64_t cleared = FilterBlock(v, blk, pred);
      cleared_total += cleared;
      if (BlockCount(blk) > 0) ++nonempty;
      cm.ChargeWorkWrite(cleared > 0 ? words_per_block_ : 0);
    }
    if (cleared_total == 0) return;
    degree_[v] -= static_cast<vertex_id>(cleared_total);
    // Pack out empty blocks once a constant fraction are empty.
    if (nonempty < nb - nb / 4 || nonempty == 0) {
      uint32_t dst = 0;
      for (uint32_t k = 0; k < nb; ++k) {
        uint64_t blk = first + k;
        if (BlockCount(blk) == 0) continue;
        if (dst != k) {
          uint64_t* dw = BlockWords(first + dst);
          uint64_t* sw = BlockWords(blk);
          for (uint32_t w = 0; w < words_per_block_; ++w) dw[w] = sw[w];
          block_orig_[first + dst] = block_orig_[blk];
        }
        ++dst;
      }
      cm.ChargeWorkWrite(uint64_t{dst} * (words_per_block_ + 2));
      num_blocks_[v] = dst;
      nb = dst;
    }
    // Recompute offsets (active edges before each block).
    uint64_t acc = 0;
    for (uint32_t k = 0; k < nb; ++k) {
      block_offset_[first + k] = acc;
      acc += BlockCount(first + k);
    }
    cm.ChargeWorkWrite(nb);
    SAGE_DCHECK(acc == degree_[v]);
  }

  /// Packs every vertex of `subset` in parallel with `pred`; returns the new
  /// degrees as (vertex, degree) pairs, mirroring the paper's augmented
  /// vertexSubset.
  template <typename Pred>
  std::vector<std::pair<vertex_id, vertex_id>> EdgeMapPack(
      const VertexSubset& subset, const Pred& pred) {
    std::vector<std::pair<vertex_id, vertex_id>> out(subset.size());
    if (subset.is_dense()) {
      auto ids = pack_index<vertex_id>(
          subset.num_total(),
          [&](size_t v) { return subset.flags()[v] != 0; });
      parallel_for(0, ids.size(), [&](size_t i) {
        PackVertex(ids[i], pred);
        out[i] = {ids[i], degree_[ids[i]]};
      });
    } else {
      const auto& ids = subset.ids();
      parallel_for(0, ids.size(), [&](size_t i) {
        PackVertex(ids[i], pred);
        out[i] = {ids[i], degree_[ids[i]]};
      });
    }
    return out;
  }

  /// Packs all vertices with `pred`; returns the number of active edges
  /// remaining.
  template <typename Pred>
  uint64_t FilterEdges(const Pred& pred) {
    parallel_for(0, degree_.size(), [&](size_t v) {
      PackVertex(static_cast<vertex_id>(v), pred);
    });
    return num_active_edges();
  }

  /// DRAM bytes of the filter structure (Section 4.2.3 "Memory Usage").
  size_t MemoryBytes() const {
    return bits_.size() * sizeof(uint64_t) +
           block_orig_.size() * sizeof(uint32_t) +
           block_offset_.size() * sizeof(uint64_t) +
           first_block_.size() * sizeof(uint64_t) +
           num_blocks_.size() * sizeof(uint32_t) +
           degree_.size() * sizeof(vertex_id) + dirty_.size();
  }

  /// Number of logical-block decodes performed by MapActive/FilterBlock so
  /// far (Table 4's "total work" instrumentation; compressed blocks must be
  /// fully decoded to read one active edge).
  uint64_t blocks_decoded() const {
    return blocks_decoded_.load(std::memory_order_relaxed);
  }
  uint64_t edges_decoded() const {
    return edges_decoded_.load(std::memory_order_relaxed);
  }
  void ResetDecodeCounters() {
    blocks_decoded_.store(0, std::memory_order_relaxed);
    edges_decoded_.store(0, std::memory_order_relaxed);
  }

 private:
  uint64_t* BlockWords(uint64_t blk) {
    return bits_.data() + blk * words_per_block_;
  }
  const uint64_t* BlockWords(uint64_t blk) const {
    return bits_.data() + blk * words_per_block_;
  }

  /// Active edges in block blk (popcount over its words).
  uint64_t BlockCount(uint64_t blk) const {
    const uint64_t* w = BlockWords(blk);
    uint64_t c = 0;
    for (uint32_t k = 0; k < words_per_block_; ++k) {
      c += static_cast<uint64_t>(std::popcount(w[k]));
    }
    return c;
  }

  /// Clears the bits of edges in block blk failing pred; returns how many
  /// were cleared and marks targets dirty.
  template <typename Pred>
  uint64_t FilterBlock(vertex_id v, uint64_t blk, const Pred& pred) {
    uint64_t* w = BlockWords(blk);
    uint64_t cleared = 0;
    ForEachActive(v, blk, [&](uint32_t word, uint32_t bit, vertex_id u) {
      if (!pred(v, u)) {
        w[word] &= ~(1ULL << bit);
        // Many workers may mark one target; a relaxed store is still a
        // plain byte move on x86.
        std::atomic_ref<uint8_t>(dirty_[u]).store(1, std::memory_order_relaxed);
        ++cleared;
      }
    });
    return cleared;
  }

  /// Calls visit(word, bit, u) for each edge whose bit is set in block blk
  /// of v, in order; visit may clear the bit it is given. A compressed
  /// block is decoded and charged whole. An uncompressed block is read
  /// from v's list, and only its active edges are charged.
  template <typename Visit>
  void ForEachActive(vertex_id v, uint64_t blk, const Visit& visit) const {
    const uint64_t base = uint64_t{block_orig_[blk]} * fb_;
    const uint64_t* w = BlockWords(blk);
    blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
    vertex_id decoded[GraphT::kCompressed ? CompressedGraph::kMaxBlockSize
                                          : 1];
    const vertex_id* nbrs = decoded;
    [[maybe_unused]] uint64_t len = 0;  // edges readable from nbrs
    if constexpr (GraphT::kCompressed) {
      len = g_.DecodeBlock(v, block_orig_[blk], decoded, nullptr);
      edges_decoded_.fetch_add(len, std::memory_order_relaxed);
    } else {
      const std::span<const vertex_id> list = g_.NeighborsUncharged(v);
      nbrs = list.data() + base;
      len = list.size() - base;
    }
    uint64_t active = 0;
    for (uint32_t word = 0; word < words_per_block_; ++word) {
      uint64_t x = w[word];
      while (x != 0) {
        uint32_t bit = static_cast<uint32_t>(std::countr_zero(x));
        x &= x - 1;  // blsr
        SAGE_DCHECK(word * 64 + bit < len);
        visit(word, bit, nbrs[word * 64 + bit]);
        ++active;
      }
    }
    if constexpr (!GraphT::kCompressed) {
      edges_decoded_.fetch_add(active, std::memory_order_relaxed);
      g_.ChargeNeighborRead(v, base, active);
    }
  }

  const GraphT& g_;
  uint32_t fb_ = 64;
  uint32_t words_per_block_ = 1;
  std::vector<vertex_id> degree_;
  std::vector<uint32_t> num_blocks_;
  std::vector<uint64_t> first_block_;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> block_orig_;
  std::vector<uint64_t> block_offset_;
  std::vector<uint8_t> dirty_;
  mutable std::atomic<uint64_t> blocks_decoded_{0};
  mutable std::atomic<uint64_t> edges_decoded_{0};
  nvram::TrackedAllocation tracked_;
};

}  // namespace sage
