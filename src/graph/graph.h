// The uncompressed CSR graph: Sage's NVRAM-resident, read-only input.
//
// The semi-asymmetric discipline is enforced two ways:
//  1. statically - algorithms receive `const Graph&` and there is no public
//     mutation API at all (the only mutating structure in the repository is
//     baselines::PackedGraph, which models GBBS's in-place filtering);
//  2. dynamically - every accessor charges the PSAM cost model as a *graph
//     region* access, so tests and benchmarks can audit that Sage performs
//     zero NVRAM writes while baselines pay omega per write.
//
// Accessors charge at neighborhood granularity (one charge per adjacency
// list scanned) to keep instrumentation overhead well below the work being
// measured. Every accessor reads v's list through one private view, which
// alone decides whether the list is the base CSR slice or a DRAM delta
// overlay's merged copy, and charges through one helper that picks the
// matching memory kind.
//
// Storage backends: a Graph reads its CSR arrays through spans backed by a
// GraphStorage. The default backend owns std::vectors (graphs built in
// memory); MapBinaryGraph (binary_format.h) supplies a backend borrowing an
// mmap-ed .bsadj file, which makes AllocPolicy::kGraphNvram literal - the
// mapped file *is* the NVRAM-resident graph, constructed zero-copy. The
// backend is shared, so copying a Graph is cheap and never duplicates the
// (potentially enormous) CSR arrays.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/primitives.h"

namespace sage {

class DeltaOverlay;  // graph/delta.h: DRAM delta over an NVRAM base image

namespace internal_overlay {

/// View of one overlaid vertex's merged adjacency list (base - deletes +
/// inserts, sorted, DRAM-resident). POD so graph.h needs no delta.h include;
/// the accessors below are defined in graph/delta.cc.
struct OverlayList {
  const vertex_id* neighbors = nullptr;
  const weight_t* weights = nullptr;  // nullptr when the graph is unweighted
  vertex_id degree = 0;
};

/// Merged list of a touched vertex. Precondition: the overlay's touched bit
/// for `v` is set (aborts otherwise).
OverlayList Find(const DeltaOverlay& overlay, vertex_id v);
/// Bitset of touched vertices, (n + 63) / 64 words.
const uint64_t* TouchedBits(const DeltaOverlay& overlay);
/// Directed edges of the overlay view (base m adjusted by the net delta).
uint64_t OverlayNumEdges(const DeltaOverlay& overlay);
/// Directed edge slots inserted or deleted relative to the base image.
uint64_t OverlayDeltaEdges(const DeltaOverlay& overlay);

}  // namespace internal_overlay

/// Backend owning (or keeping alive) the memory behind a Graph's CSR spans.
/// Implementations must keep the spanned memory valid and immutable for
/// their own lifetime.
class GraphStorage {
 public:
  virtual ~GraphStorage() = default;

  /// n+1 offsets; offsets()[n] == neighbors().size().
  virtual std::span<const edge_offset> offsets() const = 0;
  virtual std::span<const vertex_id> neighbors() const = 0;
  /// Empty, or sized like neighbors().
  virtual std::span<const weight_t> weights() const = 0;

  /// True when the backing memory is a read-only file mapping charged as
  /// NVRAM-resident (the semi-external setup: the file is the graph).
  virtual bool nvram_resident() const { return false; }

  /// The DRAM delta overlay merged into reads of this storage, or nullptr
  /// when the CSR spans are the whole graph. Only OverlayGraphStorage
  /// (graph/delta.h) returns non-null; the overlay must outlive the
  /// storage. Graph caches this at construction, so every accessor reads
  /// base + delta transparently.
  virtual const DeltaOverlay* delta_overlay() const { return nullptr; }

  // --- Multi-shard introspection ----------------------------------------
  // A sharded backend (graph/sharded_storage.h) assembles k independently
  // mapped .bsadj segments into globally contiguous CSR spans, so shards
  // are a partitioning/attribution concept, never an accessor branch:
  // algorithms, writers, and the prefetcher see one dense CSR. These
  // virtuals expose the shard geometry to the cost model (per-shard NVRAM
  // attribution) and the engine (update guards).

  /// Number of contiguous vertex shards backing this storage; 0 for
  /// monolithic backends.
  virtual uint32_t shard_count() const { return 0; }
  /// k+1 shard boundaries in directed-edge index space (shard s owns edge
  /// slots [starts[s], starts[s+1])); empty for monolithic backends.
  virtual std::span<const edge_offset> shard_edge_starts() const {
    return {};
  }

  // --- Page-granular advice and residency introspection -----------------
  // Meaningful only for file-mapped backends (MappedGraphStorage), which
  // the prefetch pipeline (graph/prefetch.h) drives; in-memory storage has
  // no pages to advise and inherits these no-ops. Byte offsets are relative
  // to the start of the mapped image.

  /// True when the backend supports page advice (a live file mapping).
  virtual bool SupportsPageAdvice() const { return false; }
  /// Total bytes of the mapped image (0 when not mapped).
  virtual uint64_t MappingBytes() const { return 0; }
  /// Byte offset of the neighbors section within the image.
  virtual uint64_t NeighborsByteOffset() const { return 0; }
  /// Byte offset of the weights section; 0 when unweighted or not mapped.
  virtual uint64_t WeightsByteOffset() const { return 0; }
  /// Hints the kernel to read [offset, offset+bytes) ahead
  /// (madvise(MADV_WILLNEED)); asynchronous, advisory, never fails hard.
  virtual void AdviseWillNeed(uint64_t offset, uint64_t bytes) const {
    (void)offset;
    (void)bytes;
  }
  /// Drops [offset, offset+bytes) from this process's page tables
  /// (madvise(MADV_DONTNEED); re-faulted from the page cache / file on next
  /// touch - safe for the read-only mapping).
  virtual void AdviseDontNeed(uint64_t offset, uint64_t bytes) const {
    (void)offset;
    (void)bytes;
  }
  /// Number of pages of [offset, offset+bytes) currently resident in DRAM
  /// (mincore); 0 when the backend is not mapped.
  virtual uint64_t CountResidentPages(uint64_t offset, uint64_t bytes) const {
    (void)offset;
    (void)bytes;
    return 0;
  }
};

/// GraphStorage that owns its arrays as std::vectors (the in-memory
/// backend used by builders and generators).
class VectorGraphStorage final : public GraphStorage {
 public:
  VectorGraphStorage(std::vector<edge_offset> offsets,
                     std::vector<vertex_id> neighbors,
                     std::vector<weight_t> weights)
      : offsets_(std::move(offsets)),
        neighbors_(std::move(neighbors)),
        weights_(std::move(weights)) {}

  std::span<const edge_offset> offsets() const override { return offsets_; }
  std::span<const vertex_id> neighbors() const override { return neighbors_; }
  std::span<const weight_t> weights() const override { return weights_; }

 private:
  std::vector<edge_offset> offsets_;
  std::vector<vertex_id> neighbors_;
  std::vector<weight_t> weights_;
};

/// Immutable CSR graph. Build instances with GraphBuilder (builder.h), the
/// generators (generators.h), or zero-copy over a mapped binary image
/// (binary_format.h).
class Graph {
 public:
  /// Marker used by generic code to select block-decode paths.
  static constexpr bool kCompressed = false;

  Graph() = default;

  /// Takes ownership of CSR arrays. offsets.size() == n+1;
  /// neighbors.size() == offsets[n]; weights empty or sized like neighbors.
  Graph(std::vector<edge_offset> offsets, std::vector<vertex_id> neighbors,
        std::vector<weight_t> weights, bool symmetric)
      : Graph(std::make_shared<VectorGraphStorage>(std::move(offsets),
                                                   std::move(neighbors),
                                                   std::move(weights)),
              symmetric) {}

  /// Wraps an existing storage backend (owned or borrowed arrays). The
  /// invariants of the vector constructor apply to the backend's spans.
  Graph(std::shared_ptr<const GraphStorage> storage, bool symmetric)
      : storage_(std::move(storage)),
        offsets_(storage_->offsets()),
        neighbors_(storage_->neighbors()),
        weights_(storage_->weights()),
        symmetric_(symmetric) {
    SAGE_CHECK(!offsets_.empty());
    SAGE_CHECK(offsets_.back() == neighbors_.size());
    SAGE_CHECK(weights_.empty() || weights_.size() == neighbors_.size());
    overlay_ = storage_->delta_overlay();
    if (overlay_ != nullptr) {
      overlay_bits_ = internal_overlay::TouchedBits(*overlay_);
      num_edges_ = internal_overlay::OverlayNumEdges(*overlay_);
    } else {
      num_edges_ = neighbors_.size();
    }
  }

  /// Number of vertices n.
  vertex_id num_vertices() const {
    return static_cast<vertex_id>(offsets_.size() - 1);
  }

  /// Number of directed edges stored (2m for a symmetrized graph),
  /// including the net effect of a delta overlay.
  edge_offset num_edges() const { return num_edges_; }

  /// True if every edge (u,v) has its reverse (v,u) present.
  bool symmetric() const { return symmetric_; }

  /// True if an explicit weight array is stored.
  bool weighted() const { return !weights_.empty(); }

  /// Average (out-)degree m/n.
  double avg_degree() const {
    vertex_id n = num_vertices();
    return n == 0 ? 0.0
                  : static_cast<double>(num_edges()) / static_cast<double>(n);
  }

  /// Degree of v. Charges one read of v's list (a graph-region read, or a
  /// DRAM work read when v lives in the delta overlay). The address hint is
  /// v's adjacency start in edge-index space, the same space every other
  /// graph charge uses, so the NUMA model and per-shard attribution resolve
  /// all graph traffic consistently.
  vertex_id degree(vertex_id v) const {
    SAGE_DCHECK(v < num_vertices());
    const Adjacency a = View(v);
    Charge(v, a.overlaid, 1);
    return a.degree;
  }

  /// Degree without charging; for internal size computations whose cost is
  /// already accounted at a coarser granularity.
  vertex_id degree_uncharged(vertex_id v) const { return View(v).degree; }

  /// Weight of the i-th edge of v (1 for unweighted graphs). The caller's
  /// neighborhood charge covers this read.
  weight_t weight_at(vertex_id v, vertex_id i) const {
    return View(v).weight(i);
  }

  /// Applies f(v, neighbor, weight) to each edge out of v, sequentially.
  /// Charges the whole adjacency list as one read.
  template <typename F>
  void MapNeighbors(vertex_id v, const F& f) const {
    const Adjacency a = View(v);
    Charge(v, a.overlaid, ListWords(a.degree));
    for (vertex_id i = 0; i < a.degree; ++i) f(v, a.neighbors[i], a.weight(i));
  }

  /// Like MapNeighbors but stops early when f returns false. Returns true if
  /// all edges were visited. Charges the full list (conservative: the PSAM
  /// charges the worst case; early exits are a constant-factor refinement).
  template <typename F>
  bool MapNeighborsWhile(vertex_id v, const F& f) const {
    const Adjacency a = View(v);
    Charge(v, a.overlaid, ListWords(a.degree));
    for (vertex_id i = 0; i < a.degree; ++i) {
      if (!f(v, a.neighbors[i], a.weight(i))) return false;
    }
    return true;
  }

  /// Applies f(v, neighbor, weight) to the edges of v with local indices in
  /// [begin, end) — one logical block of the adjacency list. Charges only
  /// that slice. Used by edgeMapChunked.
  template <typename F>
  void MapNeighborsRange(vertex_id v, edge_offset begin, edge_offset end,
                         const F& f) const {
    const Adjacency a = View(v);
    SAGE_DCHECK(end <= a.degree);
    Charge(v, a.overlaid, ListWords(end - begin), begin);
    for (edge_offset i = begin; i < end; ++i) {
      f(v, a.neighbors[i], a.weight(i));
    }
  }

  /// Reduces g(v, u, w) over v's neighborhood with a parallel monoid reduce.
  template <typename T, typename G, typename Op>
  T ReduceNeighbors(vertex_id v, const G& g, const Op& op, T id) const {
    const Adjacency a = View(v);
    Charge(v, a.overlaid, ListWords(a.degree));
    return reduce(
        size_t{a.degree},
        [&](size_t i) { return g(v, a.neighbors[i], a.weight(i)); }, op, id);
  }

  /// Raw sorted neighbor ids of v (for intersections). Charges the list.
  std::span<const vertex_id> Neighbors(vertex_id v) const {
    const Adjacency a = View(v);
    Charge(v, a.overlaid, ListWords(a.degree));
    return {a.neighbors, size_t{a.degree}};
  }

  /// Neighbor ids without charging (when the caller charges by block
  /// through ChargeNeighborRead, e.g. the graph filter).
  std::span<const vertex_id> NeighborsUncharged(vertex_id v) const {
    const Adjacency a = View(v);
    return {a.neighbors, size_t{a.degree}};
  }

  /// The neighbor at local index i of v; uncharged.
  vertex_id NeighborAt(vertex_id v, edge_offset i) const {
    return View(v).neighbors[i];
  }

  /// Charges `words` read from v's list starting at local index `begin`,
  /// for block-granular callers that read through NeighborsUncharged: the
  /// same kind (graph read, or DRAM work read when v is overlaid) and hint
  /// every accessor above uses.
  void ChargeNeighborRead(vertex_id v, edge_offset begin,
                          uint64_t words) const {
    Charge(v, Overlaid(v), words, begin);
  }

  std::span<const edge_offset> raw_offsets() const { return offsets_; }
  std::span<const vertex_id> raw_neighbors() const { return neighbors_; }
  std::span<const weight_t> raw_weights() const { return weights_; }

  /// True when the CSR arrays are borrowed from an NVRAM-resident file
  /// mapping rather than owned in memory (see binary_format.h).
  bool nvram_resident() const {
    return storage_ != nullptr && storage_->nvram_resident();
  }

  /// True when reads merge a DRAM delta overlay over the base CSR (the
  /// storage is an OverlayGraphStorage; see graph/delta.h). Writers that
  /// serialize via the raw spans must FlattenOverlay() first.
  bool has_overlay() const { return overlay_ != nullptr; }

  /// Directed edge slots inserted or deleted by the overlay relative to
  /// the base image (0 for overlay-free graphs).
  uint64_t delta_edges() const {
    return overlay_ == nullptr ? 0
                               : internal_overlay::OverlayDeltaEdges(*overlay_);
  }

  /// The storage backend (shared: keeps the mapping alive for holders that
  /// outlive this Graph object, e.g. the prefetch pipeline).
  std::shared_ptr<const GraphStorage> storage() const { return storage_; }

  /// Approximate NVRAM bytes occupied by the CSR arrays.
  size_t SizeBytes() const {
    return offsets_.size() * sizeof(edge_offset) +
           neighbors_.size() * sizeof(vertex_id) +
           weights_.size() * sizeof(weight_t);
  }

 private:
  /// True when v's adjacency list lives in the delta overlay. Hot-path
  /// inline: a null check plus one bitset probe for overlay graphs, a
  /// single null check for overlay-free graphs.
  bool Overlaid(vertex_id v) const {
    return overlay_ != nullptr &&
           ((overlay_bits_[v >> 6] >> (v & 63)) & 1ull) != 0;
  }

  /// v's adjacency list as every accessor reads it.
  struct Adjacency {
    const vertex_id* neighbors;
    const weight_t* weights;  // nullptr when the graph is unweighted
    vertex_id degree;
    bool overlaid;  // the list is the overlay's merged DRAM copy

    weight_t weight(size_t i) const {
      return weights == nullptr ? weight_t{1} : weights[i];
    }
  };

  /// The one place that decides where v's list lives: the delta overlay's
  /// merged list when v is touched, else v's slice of the base CSR.
  Adjacency View(vertex_id v) const {
    if (SAGE_UNLIKELY(Overlaid(v))) {
      internal_overlay::OverlayList l = internal_overlay::Find(*overlay_, v);
      return {l.neighbors, l.weights, l.degree, true};
    }
    const edge_offset lo = offsets_[v];
    return {neighbors_.data() + lo,
            weights_.empty() ? nullptr : weights_.data() + lo,
            static_cast<vertex_id>(offsets_[v + 1] - lo), false};
  }

  /// Charges `words` of v's list at hint offsets_[v] + begin. Base lists
  /// are graph reads; overlaid lists live in DRAM while the base stays
  /// NVRAM-resident, so they are DRAM work reads of the same words, which
  /// keeps an overlay view's total PSAM reads bit-identical to the
  /// compacted graph's.
  void Charge(vertex_id v, bool overlaid, uint64_t words,
              edge_offset begin = 0) const {
    if (overlaid) {
      nvram::Cost().ChargeWorkRead(words, offsets_[v] + begin);
    } else {
      nvram::Cost().ChargeGraphRead(words, offsets_[v] + begin);
    }
  }

  /// Words of a slice of `edges` edges: the offset word, the neighbor
  /// words, and the weight words when present.
  uint64_t ListWords(uint64_t edges) const {
    return 1 + edges + (weights_.empty() ? 0 : edges);
  }

  /// Keeps the spanned memory alive; shared across copies of the Graph.
  std::shared_ptr<const GraphStorage> storage_;
  std::span<const edge_offset> offsets_;
  std::span<const vertex_id> neighbors_;
  std::span<const weight_t> weights_;
  /// Delta overlay of the storage (cached; owned by storage_) and its
  /// touched bitset; nullptr for overlay-free graphs.
  const DeltaOverlay* overlay_ = nullptr;
  const uint64_t* overlay_bits_ = nullptr;
  /// Directed edges of the view (== neighbors_.size() without an overlay).
  edge_offset num_edges_ = 0;
  bool symmetric_ = false;
};

}  // namespace sage
