// VertexSubset: the frontier representation of Ligra/GBBS/Sage.
//
// A subset of V in one of two interchangeable forms:
//   - sparse: a compact array of vertex ids (good for small frontiers);
//   - dense:  a byte per vertex (good for large frontiers and pull-based
//     traversal).
// All conversions are parallel. DRAM footprint is reported to the
// MemoryTracker: a subset is O(n) words in the worst case, part of the
// PSAM's small-memory budget.
//
// A subset built by a dense edgeMap round also carries its members' degree
// sum in the graph that round traversed, so the next round needs no pass
// over the subset to choose its direction (core/edge_map.h).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/types.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

namespace internal {
struct RoundHandover;  // core/edge_map.h: the one writer of a carried sum
}  // namespace internal

/// A subset of the vertices of an n-vertex graph.
class VertexSubset {
 public:
  /// Empty subset over n vertices.
  static VertexSubset Empty(vertex_id n) {
    return VertexSubset(n, std::vector<vertex_id>{});
  }

  /// Singleton subset {v}.
  static VertexSubset Single(vertex_id n, vertex_id v) {
    SAGE_DCHECK(v < n);
    return VertexSubset(n, std::vector<vertex_id>{v});
  }

  /// Sparse subset from an id array (ids must be unique and < n).
  static VertexSubset Sparse(vertex_id n, std::vector<vertex_id> ids) {
    return VertexSubset(n, std::move(ids));
  }

  /// Dense subset from per-vertex flags; `count` = number of set flags.
  static VertexSubset Dense(vertex_id n, std::vector<uint8_t> flags,
                            size_t count) {
    SAGE_DCHECK(flags.size() == n);
    return VertexSubset(n, std::move(flags), count);
  }

  /// The full vertex set.
  static VertexSubset All(vertex_id n) {
    return Dense(n, std::vector<uint8_t>(n, 1), n);
  }

  VertexSubset(VertexSubset&&) = default;
  VertexSubset& operator=(VertexSubset&&) = default;
  VertexSubset(const VertexSubset&) = delete;
  VertexSubset& operator=(const VertexSubset&) = delete;

  /// Number of vertices in the underlying graph.
  vertex_id num_total() const { return n_; }

  /// Number of vertices in the subset.
  size_t size() const { return size_; }
  bool IsEmpty() const { return size_ == 0; }

  bool is_dense() const { return dense_; }

  /// Converts to the dense representation (no-op if already dense).
  void ToDense() {
    if (dense_) return;
    std::vector<uint8_t> flags(n_, 0);
    parallel_for(0, ids_.size(), [&](size_t i) { flags[ids_[i]] = 1; });
    flags_ = std::move(flags);
    ids_.clear();
    ids_.shrink_to_fit();
    dense_ = true;
    ReportMemory();
  }

  /// Converts to the sparse representation (no-op if already sparse).
  void ToSparse() {
    if (!dense_) return;
    ids_ = pack_index<vertex_id>(n_, [&](size_t v) { return flags_[v] != 0; });
    SAGE_DCHECK(ids_.size() == size_);
    flags_.clear();
    flags_.shrink_to_fit();
    dense_ = false;
    ReportMemory();
  }

  /// Membership test; requires the dense representation.
  bool Contains(vertex_id v) const {
    SAGE_DCHECK(dense_);
    return flags_[v] != 0;
  }

  /// Applies f(v) to every member, in parallel.
  template <typename F>
  void Map(const F& f) const {
    if (dense_) {
      parallel_for(0, n_, [&](size_t v) {
        if (flags_[v]) f(static_cast<vertex_id>(v));
      });
    } else {
      parallel_for(0, ids_.size(), [&](size_t i) { f(ids_[i]); });
    }
  }

  /// Sparse id array (requires sparse representation).
  const std::vector<vertex_id>& ids() const {
    SAGE_DCHECK(!dense_);
    return ids_;
  }

  /// Dense flag array (requires dense representation).
  const std::vector<uint8_t>& flags() const {
    SAGE_DCHECK(dense_);
    return flags_;
  }

  /// The members' out-degree sum in `g`, when the edgeMap round that built
  /// this subset traversed that same graph object; nullopt otherwise.
  /// Conversions keep it, since they keep the members.
  template <typename GraphT>
  std::optional<uint64_t> CarriedDegree(const GraphT& g) const {
    if (degree_graph_ != static_cast<const void*>(&g)) return std::nullopt;
    return degree_sum_;
  }

  /// Bytes of DRAM this subset currently occupies.
  size_t MemoryBytes() const {
    return dense_ ? flags_.size() : ids_.size() * sizeof(vertex_id);
  }

 private:
  VertexSubset(vertex_id n, std::vector<vertex_id> ids)
      : n_(n),
        dense_(false),
        size_(ids.size()),
        ids_(std::move(ids)),
        tracked_(MemoryBytes()) {}

  VertexSubset(vertex_id n, std::vector<uint8_t> flags, size_t count)
      : n_(n),
        dense_(true),
        size_(count),
        flags_(std::move(flags)),
        tracked_(MemoryBytes()) {}

  void ReportMemory() { tracked_.Resize(MemoryBytes()); }

  friend struct internal::RoundHandover;

  vertex_id n_;
  bool dense_;
  size_t size_;
  std::vector<vertex_id> ids_;
  std::vector<uint8_t> flags_;
  nvram::TrackedAllocation tracked_;
  /// The graph object degree_sum_ was summed over; nullptr when none was.
  const void* degree_graph_ = nullptr;
  uint64_t degree_sum_ = 0;
};

}  // namespace sage
