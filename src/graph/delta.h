// Dynamic updates over the immutable NVRAM base image: the DRAM delta
// layer of the semi-asymmetric serving story.
//
// The paper's discipline keeps the graph NVRAM-resident and read-only while
// mutable state lives in DRAM. This module extends that to ingestion:
//
//   - EdgeUpdate / DeltaLog: a concurrent insert/delete log, sharded by
//     source vertex so writer threads append mostly without contention.
//     Drain() returns everything in submission order for deterministic
//     batch application (Engine::ApplyUpdates group-commits drains).
//   - DeltaOverlay: an immutable batch-applied view of the log. For every
//     *touched* vertex it stores the full merged adjacency list
//     (base - deletes + inserts, sorted) in DRAM plus a touched bitset;
//     untouched vertices keep reading the base image in place. Built via
//     ApplyUpdateBatch (copy-on-write from the previous overlay, so old
//     epochs keep serving their own view).
//   - OverlayGraphStorage: plugs an overlay behind the GraphStorage seam.
//     Every Graph accessor (and therefore every algorithm and edgeMap)
//     reads base + delta transparently; overlaid lists are charged as DRAM
//     work reads with the same word count the base list would charge, so
//     the overlay view's PSAM totals stay bit-identical to the compacted
//     graph while the DRAM/NVRAM split reflects where the bytes live. The
//     same storage carries AddRandomWeights' DRAM weights over an
//     overlay-free base, so a weighted run never copies the graph.
//   - FlattenOverlay: materializes the merged CSR (compaction, or any
//     writer that serializes through the raw spans).
//
// Epoch pinning and the compaction rewrite live in graph/epoch.h and
// api/engine.h (Engine::ApplyUpdates / Engine::Compact).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace sage {

/// One edge mutation. On symmetric graphs both directions (u,v) and (v,u)
/// are applied (a self-loop occupies a single directed slot). Inserting an
/// existing edge updates its weight in place; removing an absent edge is a
/// no-op. Updates never grow the vertex set: ids must be < n.
struct EdgeUpdate {
  vertex_id u = 0;
  vertex_id v = 0;
  weight_t w = 1;
  bool remove = false;

  static EdgeUpdate Insert(vertex_id u, vertex_id v, weight_t w = 1) {
    return EdgeUpdate{u, v, w, false};
  }
  static EdgeUpdate Remove(vertex_id u, vertex_id v) {
    return EdgeUpdate{u, v, 1, true};
  }
};

/// Concurrent edge-update log, sharded by source vertex. Append() is safe
/// from any number of threads and assigns each update a global sequence
/// number; Drain() empties every shard and returns the updates in
/// submission order, so batch application is deterministic regardless of
/// which shard each update landed in.
class DeltaLog {
 public:
  static constexpr int kDefaultShards = 16;

  explicit DeltaLog(int shards = kDefaultShards);

  SAGE_DISALLOW_COPY_AND_ASSIGN(DeltaLog);

  /// Appends a batch; returns the sequence number of its last update (0
  /// when the batch is empty). Safe from any thread.
  uint64_t Append(std::span<const EdgeUpdate> updates);

  /// Removes and returns every pending update, ordered by sequence number.
  /// When `last_seq` is non-null it is raised to the highest drained
  /// sequence (left untouched when nothing was pending).
  std::vector<EdgeUpdate> Drain(uint64_t* last_seq = nullptr);

  /// Updates appended but not yet drained.
  uint64_t pending() const { return pending_.load(std::memory_order_relaxed); }

  int shards() const { return num_shards_; }

 private:
  struct alignas(kCacheLineBytes) Shard {
    mutable Mutex mu;
    std::vector<std::pair<uint64_t, EdgeUpdate>> entries SAGE_GUARDED_BY(mu);
  };

  const int num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> pending_{0};
};

/// Immutable DRAM overlay over a base CSR: the merged adjacency lists of
/// every vertex touched by applied updates, plus a touched bitset for O(1)
/// membership. Built by ApplyUpdateBatch; shared (read-only) by every
/// Graph copy of its epoch.
class DeltaOverlay {
 public:
  struct VertexList {
    std::vector<vertex_id> neighbors;  // sorted
    std::vector<weight_t> weights;     // empty iff the graph is unweighted
  };

  vertex_id num_vertices() const { return n_; }

  /// True when v's list lives in this overlay.
  bool touched(vertex_id v) const {
    return ((touched_bits_[v >> 6] >> (v & 63)) & 1ull) != 0;
  }

  /// Merged list of v, or nullptr when untouched.
  const VertexList* Find(vertex_id v) const {
    auto it = lists_.find(v);
    return it == lists_.end() ? nullptr : &it->second;
  }

  /// Directed edges of the overlay view (base m plus the net delta).
  uint64_t num_edges() const { return num_edges_; }

  /// Directed edge slots inserted or deleted relative to the base image
  /// (cumulative across batches; weight upserts do not count).
  uint64_t delta_edges() const { return delta_edges_; }

  /// Vertices whose lists live in DRAM.
  uint64_t touched_vertices() const { return lists_.size(); }

  /// Touched bitset, (n + 63) / 64 words (Graph caches the pointer).
  const std::vector<uint64_t>& touched_bits() const { return touched_bits_; }

 private:
  DeltaOverlay() = default;

  friend Result<std::shared_ptr<const DeltaOverlay>> ApplyUpdateBatch(
      const Graph& base, const std::shared_ptr<const DeltaOverlay>& prev,
      std::span<const EdgeUpdate> updates);

  vertex_id n_ = 0;
  std::vector<uint64_t> touched_bits_;
  std::unordered_map<vertex_id, VertexList> lists_;
  uint64_t num_edges_ = 0;
  uint64_t delta_edges_ = 0;
};

/// GraphStorage presenting `base` with DRAM state layered over it: either
/// `overlay` merged into reads (an updated epoch), or `weights` standing in
/// for the base's weights (AddRandomWeights' view). The offsets, neighbors,
/// NVRAM residence, and page advice all forward to the base, so the mapped
/// image is never copied and the prefetch pipeline keeps advising it;
/// overlaid lists and DRAM weights need no advice. delta_overlay() hands
/// the overlay (or nullptr) to Graph.
class OverlayGraphStorage final : public GraphStorage {
 public:
  OverlayGraphStorage(std::shared_ptr<const GraphStorage> base,
                      std::shared_ptr<const DeltaOverlay> overlay,
                      std::vector<weight_t> weights = {})
      : base_(std::move(base)),
        overlay_(std::move(overlay)),
        weights_(std::move(weights)) {
    SAGE_CHECK(base_ != nullptr);
    // Overlays never stack: ApplyUpdateBatch folds new updates into the
    // previous overlay instead, so reads stay one merge deep.
    SAGE_CHECK(base_->delta_overlay() == nullptr);
    // Overlaid lists carry the base's weights, so the two never mix.
    SAGE_CHECK(overlay_ == nullptr || weights_.empty());
  }

  std::span<const edge_offset> offsets() const override {
    return base_->offsets();
  }
  std::span<const vertex_id> neighbors() const override {
    return base_->neighbors();
  }
  std::span<const weight_t> weights() const override {
    return weights_.empty() ? base_->weights() : weights_;
  }
  bool nvram_resident() const override { return base_->nvram_resident(); }
  const DeltaOverlay* delta_overlay() const override {
    return overlay_.get();
  }

  bool SupportsPageAdvice() const override {
    return base_->SupportsPageAdvice();
  }
  uint64_t MappingBytes() const override { return base_->MappingBytes(); }
  uint64_t NeighborsByteOffset() const override {
    return base_->NeighborsByteOffset();
  }
  uint64_t WeightsByteOffset() const override {
    return base_->WeightsByteOffset();
  }
  void AdviseWillNeed(uint64_t offset, uint64_t bytes) const override {
    base_->AdviseWillNeed(offset, bytes);
  }
  void AdviseDontNeed(uint64_t offset, uint64_t bytes) const override {
    base_->AdviseDontNeed(offset, bytes);
  }
  uint64_t CountResidentPages(uint64_t offset, uint64_t bytes) const override {
    return base_->CountResidentPages(offset, bytes);
  }

  const std::shared_ptr<const GraphStorage>& base() const { return base_; }
  const std::shared_ptr<const DeltaOverlay>& overlay() const {
    return overlay_;
  }

 private:
  std::shared_ptr<const GraphStorage> base_;
  std::shared_ptr<const DeltaOverlay> overlay_;
  std::vector<weight_t> weights_;
};

/// Builds the overlay resulting from applying `updates` (in order) on top
/// of `prev` (nullptr = the clean base). `base` must be overlay-free.
/// Copy-on-write: `prev` is never modified, so epochs already serving it
/// are unaffected. InvalidArgument when any update references a vertex
/// >= n (no update is applied). Merging runs parallel over touched
/// vertices on the shared scheduler.
Result<std::shared_ptr<const DeltaOverlay>> ApplyUpdateBatch(
    const Graph& base, const std::shared_ptr<const DeltaOverlay>& prev,
    std::span<const EdgeUpdate> updates);

/// Wraps `base` + `overlay` into a Graph whose accessors read the merged
/// view (base must be overlay-free and backed by a storage object).
Graph MakeOverlayGraph(const Graph& base,
                       std::shared_ptr<const DeltaOverlay> overlay);

/// Materializes the merged CSR of `g` into an owned in-memory graph;
/// returns `g` unchanged when it has no overlay. Used by compaction and by
/// writers that serialize through the raw spans.
Graph FlattenOverlay(const Graph& g);

/// Parses a text update stream: one update per line, `u v [w]` inserts
/// (an optional leading `+` token is accepted) and `- u v` removes;
/// '#'/'%' lines are comments. IOError when the file cannot be read,
/// Corruption with line context when it cannot be parsed.
Result<std::vector<EdgeUpdate>> ReadEdgeUpdates(const std::string& path);

}  // namespace sage
