// ShardedGraphStorage: k independently mapped .bsadj segments assembled
// into one contiguous CSR address space.
//
// MapShardedGraph reserves a single anonymous region sized for the global
// neighbor (and weight) arrays, then splices each segment's page-aligned
// interior into it with MAP_FIXED; the partial pages at shard boundaries
// (at most one page per boundary per section) are copied in with pread.
// The segment writer's congruence contract (shard.h) guarantees the file
// offsets line up on page boundaries, so after assembly
// raw_neighbors()/raw_weights() are genuinely dense global arrays -
// algorithms, writers, the prefetcher, and the parity tests all see
// exactly the CSR a monolithic .bsadj would produce, byte for byte.
//
// Global offsets are materialized in DRAM at open (each segment's local
// offsets rebased by its edge_begin); reading them is also what feeds the
// manifest's structural checksum, so integrity checking costs no extra
// I/O. All graph charges still route through GraphResidence::kMappedNvram,
// so PSAM totals stay bit-identical to the monolithic image (the
// ShardParity suite pins this).
//
// The shard geometry is exposed through the GraphStorage shard virtuals
// for per-shard cost attribution (nvram/cost_model.h) and the engine's
// update guards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/shard.h"

namespace sage {

/// GraphStorage over the assembled multi-shard mapping (see file comment).
class ShardedGraphStorage final : public GraphStorage {
 public:
  ~ShardedGraphStorage() override;
  ShardedGraphStorage(const ShardedGraphStorage&) = delete;
  ShardedGraphStorage& operator=(const ShardedGraphStorage&) = delete;

  std::span<const edge_offset> offsets() const override { return offsets_; }
  std::span<const vertex_id> neighbors() const override { return neighbors_; }
  std::span<const weight_t> weights() const override { return weights_; }
  bool nvram_resident() const override { return true; }

  uint32_t shard_count() const override {
    return static_cast<uint32_t>(edge_starts_.size() - 1);
  }
  std::span<const edge_offset> shard_edge_starts() const override {
    return edge_starts_;
  }

  // Page advice runs directly on the assembled region: byte offset 0 is
  // the neighbors array, weights begin at the page-aligned weights_base_.
  // madvise/mincore on the few anonymous boundary pages is harmless, so no
  // per-segment translation is needed.
  bool SupportsPageAdvice() const override { return base_ != nullptr; }
  uint64_t MappingBytes() const override { return total_bytes_; }
  uint64_t NeighborsByteOffset() const override { return 0; }
  uint64_t WeightsByteOffset() const override { return weights_base_; }
  void AdviseWillNeed(uint64_t offset, uint64_t bytes) const override;
  void AdviseDontNeed(uint64_t offset, uint64_t bytes) const override;
  uint64_t CountResidentPages(uint64_t offset, uint64_t bytes) const override;

 private:
  friend Result<Graph> MapShardedGraph(const std::string& manifest_path);
  ShardedGraphStorage() = default;

  std::pair<void*, size_t> PageSpan(uint64_t offset, uint64_t bytes) const;

  void* base_ = nullptr;       // the assembled reservation; munmap in dtor
  uint64_t total_bytes_ = 0;
  uint64_t weights_base_ = 0;  // page-aligned start of the weights region
                               // within the reservation; 0 when unweighted
  std::vector<edge_offset> offsets_;      // global, materialized in DRAM
  std::span<const vertex_id> neighbors_;  // into the assembled region
  std::span<const weight_t> weights_;
  std::vector<edge_offset> edge_starts_;  // k+1, in edge-index space
};

/// Opens the .bsadjx manifest at `manifest_path`, validates every segment
/// (size, structural checksum, header/range consistency, page congruence),
/// assembles the contiguous mapping, and constructs the Graph over it. The
/// Graph reports nvram_resident() and a non-zero storage shard_count().
/// Corruption names the failing segment and check; IOError on open/map
/// failures.
Result<Graph> MapShardedGraph(const std::string& manifest_path);

}  // namespace sage
