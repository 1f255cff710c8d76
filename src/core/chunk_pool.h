// Pool-based thread-local chunk allocator for edgeMapChunked (Section 4.1,
// Algorithm 1, line 3 of the paper: "chunk allocations are done using a
// pool-based thread-local allocator").
//
// Chunks are fixed-capacity vertex-id buffers. Each worker keeps a free
// list; allocation reuses a free chunk or mints a new one. Release returns
// the chunk to the *releasing* worker's list, so steady-state traversals
// allocate nothing. A group takes its first chunk on its first emit, so
// live chunks hold the output plus at most one partly filled chunk per
// group (O(P) of them), keeping edgeMapChunked within O(n) words.
//
// Pools are keyed by chunk capacity (a per-traversal constant: n / 8P ids
// rounded down to a power of two within [64, 4096], so it depends on the
// graph's size and the worker count). Earlier revisions kept a single pool
// and reconfigured it in place on a capacity change, which raced when two
// concurrent traversals with different capacities hit Get() at once - one
// traversal's free lists were drained and resized under the other's feet.
// Keyed pools make Get() safe under concurrency; free lists are indexed by
// Scheduler::shard_id() (every charging thread, pool worker or driver, has
// its own slot) and keep a lock as a belt-and-braces guard for the rare
// slot-exhaustion alias (uncontended in steady state, so the cost is one
// cache-hot CAS per chunk).
//
// Memory accounting is per-ExecutionContext: every Alloc charges the
// *current* context's MemoryTracker for the chunk's capacity - whether the
// chunk was minted or reused from the pool - and Release frees the charge,
// so each run's peak reflects the chunks it actually held, deterministic
// regardless of pool warmth, and concurrent runs never see each other's
// chunk traffic.
#pragma once

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/thread_annotations.h"
#include "graph/types.h"
#include "nvram/memory_tracker.h"
#include "parallel/scheduler.h"

namespace sage {

/// A fixed-capacity output buffer of vertex ids.
struct Chunk {
  explicit Chunk(size_t capacity) : data(capacity) {}
  std::vector<vertex_id> data;
  size_t size = 0;

  size_t capacity() const { return data.size(); }
  bool Full() const { return size == data.size(); }
  void Push(vertex_id v) {
    SAGE_DCHECK(size < data.size());
    data[size++] = v;
  }
};

/// Per-worker pools of chunks of one capacity.
class ChunkPool {
 public:
  /// Returns the process-wide pool for chunks of at least `capacity` ids,
  /// creating it on first use. Capacities are quantized up to a power of
  /// two, so graphs with nearby degree profiles share one pool and the
  /// registry holds at most ~64 pools over the process lifetime (pools are
  /// never destroyed: the reference stays valid forever, and concurrent
  /// traversals with different capacities operate on disjoint pools).
  static ChunkPool& Get(size_t capacity) {
    capacity = std::bit_ceil(std::max<size_t>(capacity, 1));
    Registry& r = GetRegistry();
    MutexLock lock(r.mu);
    std::unique_ptr<ChunkPool>& slot = r.pools[capacity];
    if (slot == nullptr) slot.reset(new ChunkPool(capacity));
    return *slot;
  }

  /// Takes a chunk from the calling thread's free list (or mints one),
  /// charging the current context's tracker for its capacity either way.
  std::unique_ptr<Chunk> Alloc() {
    nvram::Memory().Allocate(capacity_ * sizeof(vertex_id));
    FreeList& fl = free_lists_[Scheduler::shard_id()];
    {
      MutexLock lock(fl.mu);
      if (!fl.chunks.empty()) {
        auto chunk = std::move(fl.chunks.back());
        fl.chunks.pop_back();
        chunk->size = 0;
        return chunk;
      }
    }
    return std::make_unique<Chunk>(capacity_);
  }

  /// Returns a chunk to the calling thread's free list, releasing the
  /// current context's charge for it.
  void Release(std::unique_ptr<Chunk> chunk) {
    nvram::Memory().Free(capacity_ * sizeof(vertex_id));
    FreeList& fl = free_lists_[Scheduler::shard_id()];
    MutexLock lock(fl.mu);
    fl.chunks.push_back(std::move(chunk));
  }

  /// Frees this pool's pooled chunks (between experiments). Pooled chunks
  /// carry no tracker charge - Release already returned it - so this only
  /// returns heap memory.
  void Drain() {
    for (auto& fl : free_lists_) {
      MutexLock lock(fl.mu);
      fl.chunks.clear();
    }
  }

  /// Drains every capacity-keyed pool in the process.
  static void DrainAll() {
    Registry& r = GetRegistry();
    MutexLock lock(r.mu);
    for (auto& [capacity, pool] : r.pools) pool->Drain();
  }

  size_t capacity() const { return capacity_; }

 private:
  struct alignas(kCacheLineBytes) FreeList {
    /// Guards against the one shard-id collision the scheduler permits:
    /// foreign threads beyond the kForeignSlots lease pool alias one slot.
    Mutex mu;
    std::vector<std::unique_ptr<Chunk>> chunks SAGE_GUARDED_BY(mu);
  };

  struct Registry {
    Mutex mu;
    std::map<size_t, std::unique_ptr<ChunkPool>> pools SAGE_GUARDED_BY(mu);
  };

  static Registry& GetRegistry() {
    static Registry registry;
    return registry;
  }

  explicit ChunkPool(size_t capacity) : capacity_(capacity) {}

  const size_t capacity_;
  FreeList free_lists_[Scheduler::kMaxShards];
};

}  // namespace sage
