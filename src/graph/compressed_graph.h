// Parallel byte-encoded compressed CSR (the Ligra+ format [87], used by
// GBBS and Sage for the ClueWeb/Hyperlink graphs).
//
// Each vertex's sorted adjacency list is cut into compression blocks of
// `block_size` edges. Within a block, the first neighbor is zigzag-encoded
// relative to the source vertex and subsequent neighbors are delta-encoded
// varints; weights (if any) are interleaved. Blocks are independently
// decodable, which gives parallelism within high-degree vertices and is
// exactly the granularity the graph filter's bitset blocks correspond to
// (Section 4.2: "this block size is always equal to the compression block
// size").
//
// The class mirrors Graph's read API and charges the PSAM cost model by
// *compressed* words, modeling the NVRAM-read savings of compression.
#pragma once

#include <span>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "graph/varint.h"
#include "nvram/execution_context.h"
#include "parallel/primitives.h"

namespace sage {

/// Immutable byte-compressed graph.
class CompressedGraph {
 public:
  /// Marker used by generic code to select block-decode paths.
  static constexpr bool kCompressed = true;

  /// Compresses `g` with the given compression block size (edges per block).
  /// Per the paper, the filter block size F_B must equal this value for
  /// compressed inputs.
  static CompressedGraph FromGraph(const Graph& g, uint32_t block_size);

  /// Walks every compression block with the bounded varint decoder and
  /// verifies the encoding is well-formed: every value decodes within its
  /// block's byte extent, each block consumes its extent exactly, and every
  /// decoded neighbor id is in range. Returns Corruption naming the first
  /// bad vertex. Cheap (one decode pass) relative to any traversal; run it
  /// once before trusting bytes that did not come from FromGraph.
  Status ValidateStructure() const;

  vertex_id num_vertices() const {
    return static_cast<vertex_id>(degrees_.size());
  }
  edge_offset num_edges() const { return num_edges_; }
  bool symmetric() const { return symmetric_; }
  bool weighted() const { return weighted_; }
  double avg_degree() const {
    return degrees_.empty() ? 0.0
                            : static_cast<double>(num_edges_) /
                                  static_cast<double>(degrees_.size());
  }
  /// Edges per compression block.
  uint32_t block_size() const { return block_size_; }

  /// Degree of v; charges one graph-region read.
  vertex_id degree(vertex_id v) const {
    nvram::Cost().ChargeGraphRead(1, first_block_[v]);
    return degrees_[v];
  }
  vertex_id degree_uncharged(vertex_id v) const { return degrees_[v]; }

  /// Number of compression blocks for v.
  uint64_t num_blocks(vertex_id v) const {
    return (static_cast<uint64_t>(degrees_[v]) + block_size_ - 1) /
           block_size_;
  }

  /// Edges in block b of v (the last block may be short).
  uint32_t block_degree(vertex_id v, uint64_t b) const {
    uint64_t start = b * block_size_;
    uint64_t d = degrees_[v];
    SAGE_DCHECK(start < d || (d == 0 && b == 0));
    return static_cast<uint32_t>(
        std::min<uint64_t>(block_size_, d - start));
  }

  /// Decodes block b of v into out_nbrs (and out_wts when weighted; pass
  /// nullptr for unweighted). Returns the number of edges decoded. Charges
  /// the compressed bytes of the block.
  uint32_t DecodeBlock(vertex_id v, uint64_t b, vertex_id* out_nbrs,
                       weight_t* out_wts) const {
    uint64_t blk = first_block_[v] + b;
    uint64_t lo = block_bytes_offset_[blk], hi = block_bytes_offset_[blk + 1];
    ChargeBytes(lo, hi - lo);
    return DecodeBlockUncharged(v, b, out_nbrs, out_wts);
  }

  /// Decode without charging (caller charged at a coarser granularity).
  /// Decoding is bounded by the block's byte extent: structural corruption
  /// aborts with a diagnostic instead of reading out of bounds (untrusted
  /// bytes should be vetted once with ValidateStructure(), which reports
  /// Status instead).
  uint32_t DecodeBlockUncharged(vertex_id v, uint64_t b, vertex_id* out_nbrs,
                                weight_t* out_wts) const {
    uint64_t blk = first_block_[v] + b;
    const uint8_t* p = bytes_.data() + block_bytes_offset_[blk];
    const uint8_t* end = bytes_.data() + block_bytes_offset_[blk + 1];
    uint32_t k = block_degree(v, b);
    if (k == 0) return 0;
    uint64_t value;
    auto decode = [&]() -> uint64_t {
      SAGE_CHECK_MSG(VarintDecodeBounded(p, end, &value),
                     "corrupt compressed block %llu of vertex %u",
                     static_cast<unsigned long long>(b), v);
      return value;
    };
    int64_t first = static_cast<int64_t>(v) + ZigzagDecode(decode());
    out_nbrs[0] = static_cast<vertex_id>(first);
    if (weighted_) out_wts[0] = static_cast<weight_t>(decode());
    for (uint32_t i = 1; i < k; ++i) {
      out_nbrs[i] = out_nbrs[i - 1] + static_cast<vertex_id>(decode());
      if (weighted_) out_wts[i] = static_cast<weight_t>(decode());
    }
    return k;
  }

  /// Applies f(v, u, w) over v's neighbors, decoding block by block.
  /// Charges the compressed bytes of the adjacency list.
  template <typename F>
  void MapNeighbors(vertex_id v, const F& f) const {
    ChargeVertex(v);
    uint64_t nb = num_blocks(v);
    vertex_id nbrs[kMaxBlockSize];
    weight_t wts[kMaxBlockSize];
    for (uint64_t b = 0; b < nb; ++b) {
      uint32_t k = DecodeBlockUncharged(v, b, nbrs, wts);
      for (uint32_t i = 0; i < k; ++i) {
        f(v, nbrs[i], weighted_ ? wts[i] : weight_t{1});
      }
    }
  }

  /// MapNeighbors with early exit; returns true if all edges were visited.
  template <typename F>
  bool MapNeighborsWhile(vertex_id v, const F& f) const {
    ChargeVertex(v);
    uint64_t nb = num_blocks(v);
    vertex_id nbrs[kMaxBlockSize];
    weight_t wts[kMaxBlockSize];
    for (uint64_t b = 0; b < nb; ++b) {
      uint32_t k = DecodeBlockUncharged(v, b, nbrs, wts);
      for (uint32_t i = 0; i < k; ++i) {
        if (!f(v, nbrs[i], weighted_ ? wts[i] : weight_t{1})) return false;
      }
    }
    return true;
  }

  /// Applies f(v, neighbor, weight) to the edges of v with local indices in
  /// [begin, end). Decodes (and charges) every block overlapping the range —
  /// compressed blocks must be decoded wholesale to reach interior edges.
  template <typename F>
  void MapNeighborsRange(vertex_id v, edge_offset begin, edge_offset end,
                         const F& f) const {
    if (begin >= end) return;
    uint64_t first_b = begin / block_size_;
    uint64_t last_b = (end - 1) / block_size_;
    vertex_id nbrs[kMaxBlockSize];
    weight_t wts[kMaxBlockSize];
    for (uint64_t b = first_b; b <= last_b; ++b) {
      uint32_t k = DecodeBlock(v, b, nbrs, wts);
      uint64_t base = b * block_size_;
      uint64_t lo = begin > base ? begin - base : 0;
      uint64_t hi = std::min<uint64_t>(k, end - base);
      for (uint64_t i = lo; i < hi; ++i) {
        f(v, nbrs[i], weighted_ ? wts[i] : weight_t{1});
      }
    }
  }

  /// Parallel monoid reduce over v's neighborhood (block-parallel).
  template <typename T, typename G, typename Op>
  T ReduceNeighbors(vertex_id v, const G& g, const Op& op, T id) const {
    ChargeVertex(v);
    uint64_t nb = num_blocks(v);
    return reduce(
        nb,
        [&](size_t b) {
          vertex_id nbrs[kMaxBlockSize];
          weight_t wts[kMaxBlockSize];
          uint32_t k = DecodeBlockUncharged(v, b, nbrs, wts);
          T acc = id;
          for (uint32_t i = 0; i < k; ++i) {
            acc = op(acc, g(v, nbrs[i], weighted_ ? wts[i] : weight_t{1}));
          }
          return acc;
        },
        op, id);
  }

  /// The raw encoded edge bytes (for validation and size inspection).
  std::span<const uint8_t> encoded_bytes() const { return bytes_; }

  /// Compressed size in bytes (edge bytes + metadata arrays).
  size_t SizeBytes() const {
    return bytes_.size() + degrees_.size() * sizeof(vertex_id) +
           first_block_.size() * sizeof(uint64_t) +
           block_bytes_offset_.size() * sizeof(uint64_t);
  }

  /// Largest supported compression block size (stack decode buffers).
  static constexpr uint32_t kMaxBlockSize = 1024;

 private:
  void ChargeVertex(vertex_id v) const {
    uint64_t lo = block_bytes_offset_[first_block_[v]];
    uint64_t hi = block_bytes_offset_[first_block_[v + 1]];
    ChargeBytes(lo, hi - lo);
  }
  void ChargeBytes(uint64_t byte_addr, uint64_t bytes) const {
    nvram::Cost().ChargeGraphRead(1 + bytes / 8, byte_addr / 8);
  }

  std::vector<vertex_id> degrees_;
  std::vector<uint64_t> first_block_;        // n+1: first block index of v
  std::vector<uint64_t> block_bytes_offset_; // NB+1: byte offset per block
  std::vector<uint8_t> bytes_;               // encoded edge data
  edge_offset num_edges_ = 0;
  uint32_t block_size_ = 64;
  bool symmetric_ = false;
  bool weighted_ = false;
};

}  // namespace sage
