// Lock-free concurrent union-find (DRAM-resident, O(n) words). Used by the
// connectivity family to contract LDD clusters: after one application of
// low-diameter decomposition with beta = O(1), the expected number of
// inter-cluster edges is O(n) (Corollary 3.1 of [69], Appendix C.2), so the
// contraction fits in the PSAM's small-memory.
#pragma once

#include <atomic>
#include <vector>

#include "graph/types.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"

namespace sage {

/// Concurrent union-find with path halving and link-by-id (the larger root
/// id always links under the smaller, which rules out cycles).
class AtomicUnionFind {
 public:
  explicit AtomicUnionFind(vertex_id n) : parent_(n) {
    parallel_for(0, n, [&](size_t v) {
      parent_[v].store(static_cast<vertex_id>(v), std::memory_order_relaxed);
    });
    nvram::Cost().ChargeWorkWrite(n);
  }

  /// Root of v's set, with path halving.
  vertex_id Find(vertex_id v) {
    while (true) {
      vertex_id p = parent_[v].load(std::memory_order_relaxed);
      if (p == v) return v;
      vertex_id gp = parent_[p].load(std::memory_order_relaxed);
      if (p == gp) return p;
      parent_[v].compare_exchange_weak(p, gp, std::memory_order_relaxed);
      v = gp;
    }
  }

  /// Merges the sets of a and b. Returns true iff this call performed the
  /// link (exactly one concurrent Unite per merged pair returns true, which
  /// lets spanning forest record its witness edge).
  bool Unite(vertex_id a, vertex_id b) {
    while (true) {
      vertex_id ra = Find(a), rb = Find(b);
      if (ra == rb) return false;
      if (ra < rb) std::swap(ra, rb);  // link larger id under smaller
      vertex_id expected = ra;
      if (parent_[ra].compare_exchange_strong(expected, rb,
                                              std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  vertex_id size() const { return static_cast<vertex_id>(parent_.size()); }

 private:
  std::vector<std::atomic<vertex_id>> parent_;
};

}  // namespace sage
