// Bucketing structure from Julienne [36], adapted to the PSAM with
// semi-eager deletion (Appendix B of the paper).
//
// Maintains a dynamic map from vertices to integer buckets and yields
// buckets in priority order (increasing for wBFS / k-core / densest
// subgraph, decreasing for approximate set cover). The practical variant
// keeps a window of open buckets plus one overflow bucket.
//
// Placement is bulk and parallel, as in Julienne: a batch of vertices is
// counted per destination (each open bucket plus overflow), the counts are
// prefix-summed, and the vertices are scattered (internal::BlockedPartition).
// The constructor, the overflow refill and UpdateBuckets all place through
// this one routine, which requires the vertex ids of a batch to be
// distinct. Extraction takes a bucket's live members out in one sequential
// pass.
//
// PSAM compliance: Julienne's fully lazy deletion can leave O(#updates) =
// O(m) stale entries resident. Here every vertex records its current bucket
// (O(n) words), stale entries are filtered at extraction, and whenever the
// stored entries exceed 2n the structure compacts (semi-eager packing),
// bounding resident DRAM to O(n) words. Extraction, refill and compaction
// keep one entry per live vertex, so a bucket never yields a vertex twice
// and at most n entries survive a refill or a compaction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/types.h"
#include "nvram/execution_context.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace sage {

/// Identifier of a bucket.
using bucket_id = uint32_t;

/// "Not in any bucket" (removed / finished vertices).
inline constexpr bucket_id kNullBucket =
    std::numeric_limits<bucket_id>::max();

/// Priority order in which NextBucket yields buckets.
enum class BucketOrder { kIncreasing, kDecreasing };

/// Dynamic vertex bucketing with priority-ordered extraction.
class Buckets {
 public:
  /// Creates the structure over vertices [0, n). `d(v)` gives the initial
  /// bucket of v (kNullBucket to leave v out); it is called once per
  /// vertex, possibly in parallel. For kDecreasing order, `max_bucket` must
  /// upper-bound every bucket id ever inserted.
  template <typename D>
  Buckets(vertex_id n, const D& d, BucketOrder order,
          bucket_id max_bucket = 0, size_t num_open = 128)
      : order_(order),
        max_bucket_(max_bucket),
        num_open_(num_open),
        vtx_bucket_(n),
        open_(num_open),
        tracked_(n * sizeof(bucket_id)) {
    if (order_ == BucketOrder::kDecreasing) SAGE_CHECK(max_bucket_ > 0);
    Place(
        n, [](size_t i) { return static_cast<vertex_id>(i); },
        [&](size_t i) {
          return vtx_bucket_[i] = d(static_cast<vertex_id>(i));
        });
    nvram::Cost().ChargeWorkWrite(n);
  }

  /// The bucket extracted by NextBucket.
  struct Bucket {
    bucket_id id = kNullBucket;          // kNullBucket when exhausted
    std::vector<vertex_id> vertices;     // live members, removed from the
                                         // structure
  };

  /// Extracts the next non-empty bucket in priority order. Members are
  /// de-duplicated against staleness and marked removed. Returns
  /// id == kNullBucket when no vertices remain.
  Bucket NextBucket() {
    for (;;) {
      while (cur_offset_ < num_open_) {
        auto& vec = open_[cur_offset_];
        if (!vec.empty()) {
          bucket_id key = cur_base_ + static_cast<bucket_id>(cur_offset_);
          std::vector<vertex_id> raw = std::move(vec);
          vec.clear();
          stored_ -= raw.size();
          bucket_id id = Unkey(key);
          // Take the live members out in one pass, each once: a repeated
          // entry finds its vertex already removed.
          size_t members = 0;
          for (vertex_id v : raw) {
            if (vtx_bucket_[v] != id) continue;
            vtx_bucket_[v] = kNullBucket;
            raw[members++] = v;
          }
          // Reads: each entry and its vertex's slot. Writes: the slots.
          nvram::Cost().ChargeWorkRead(2 * raw.size());
          nvram::Cost().ChargeWorkWrite(members);
          if (members == 0) continue;  // all stale; keep scanning
          raw.resize(members);
          return Bucket{id, std::move(raw)};
        }
        ++cur_offset_;
      }
      // Open window exhausted: refill from overflow.
      if (!RefillFromOverflow()) return Bucket{};
    }
  }

  /// Returns the bucket v currently belongs to (kNullBucket if none).
  bucket_id BucketOf(vertex_id v) const { return vtx_bucket_[v]; }

  /// Moves each (vertex, bucket) to its new bucket. A target below the
  /// current priority is clamped to the current bucket window (matching
  /// Julienne: priorities only advance). kNullBucket removes the vertex.
  /// The vertex ids of one batch must be distinct.
  void UpdateBuckets(
      const std::vector<std::pair<vertex_id, bucket_id>>& updates) {
    SAGE_DCHECK(DistinctVertices(updates));
    const bucket_id floor_key =
        cur_base_ + static_cast<bucket_id>(cur_offset_);
    // A vertex gets a new entry unless it leaves (lazy removal) or the
    // entry it has still finds it: same bucket, or overflow to overflow.
    Place(
        updates.size(), [&](size_t i) { return updates[i].first; },
        [&](size_t i) {
          auto [v, b] = updates[i];
          const bucket_id old = vtx_bucket_[v];
          if (b != kNullBucket && Key(b) < floor_key) b = Unkey(floor_key);
          vtx_bucket_[v] = b;
          if (b == kNullBucket) return kNullBucket;
          const bool keeps_entry =
              old != kNullBucket &&
              (old == b || (Dest(old) == num_open_ && Dest(b) == num_open_));
          return keeps_entry ? kNullBucket : b;
        });
    nvram::Cost().ChargeWorkWrite(updates.size());
    MaybeCompact();
  }

  /// Total entries currently stored (live + stale), for memory tests.
  size_t StoredEntries() const { return stored_; }

 private:
  /// Internal key: increasing order uses b directly; decreasing order
  /// reverses around max_bucket_ so smaller keys = higher priority.
  bucket_id Key(bucket_id b) const {
    if (order_ == BucketOrder::kIncreasing) return b;
    SAGE_DCHECK(b <= max_bucket_);
    return max_bucket_ - b;
  }
  bucket_id Unkey(bucket_id key) const {
    return order_ == BucketOrder::kIncreasing ? key : max_bucket_ - key;
  }

  /// Destination of bucket b: its open bucket's index, or num_open_ for
  /// overflow (any key outside the open window).
  size_t Dest(bucket_id b) const {
    bucket_id key = Key(b);
    if (key < cur_base_ ||
        key - cur_base_ >= static_cast<bucket_id>(num_open_)) {
      return num_open_;
    }
    return key - cur_base_;
  }

  std::vector<vertex_id>& DestVector(size_t d) {
    return d < num_open_ ? open_[d] : overflow_;
  }

  static bool DistinctVertices(
      const std::vector<std::pair<vertex_id, bucket_id>>& updates) {
    std::vector<vertex_id> ids(updates.size());
    for (size_t i = 0; i < updates.size(); ++i) ids[i] = updates[i].first;
    std::sort(ids.begin(), ids.end());
    return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  }

  /// Appends vertex(i) to the destination of bucket(i), for every i in
  /// [0, k) with bucket(i) != kNullBucket, keeping batch order in every
  /// destination. bucket(i) is called once per i, so it may update the
  /// vertex's state. The vertices must be distinct.
  template <typename VertexF, typename BucketF>
  void Place(size_t k, const VertexF& vertex, const BucketF& bucket) {
    const size_t nd = num_open_ + 1;
    std::vector<uint32_t> dest(k);  // nd: no new entry
    parallel_for(0, k, [&](size_t i) {
      const bucket_id b = bucket(i);
      dest[i] = static_cast<uint32_t>(b == kNullBucket ? nd : Dest(b));
    });
    internal::BlockedPartition(
        k, nd, [&](size_t i) { return size_t{dest[i]}; },
        [&](size_t d, size_t c) {
          auto& vec = DestVector(d);
          const size_t first = vec.size();
          vec.resize(first + c);
          stored_ += c;
          return first;
        },
        [&](size_t i, size_t d, size_t pos) {
          DestVector(d)[pos] = vertex(i);
        });
  }

  /// Rebuilds the open window from overflow entries. Returns false when the
  /// structure is exhausted.
  bool RefillFromOverflow() {
    std::vector<vertex_id> live = std::move(overflow_);
    overflow_.clear();
    stored_ -= live.size();
    // One entry per vertex: take each live vertex out while recording its
    // bucket, so a repeated entry finds it gone.
    std::vector<bucket_id> bucket(live.size());
    size_t members = 0;
    for (vertex_id v : live) {
      if (vtx_bucket_[v] == kNullBucket) continue;
      bucket[members] = vtx_bucket_[v];
      vtx_bucket_[v] = kNullBucket;
      live[members++] = v;
    }
    // Reads: each entry and its vertex's slot.
    nvram::Cost().ChargeWorkRead(2 * live.size());
    if (members == 0) return false;
    cur_base_ = reduce(
        members, [&](size_t i) { return Key(bucket[i]); },
        [](bucket_id a, bucket_id b) { return a < b ? a : b; }, kNullBucket);
    cur_offset_ = 0;
    Place(
        members, [&](size_t i) { return live[i]; },
        [&](size_t i) { return vtx_bucket_[live[i]] = bucket[i]; });
    nvram::Cost().ChargeWorkWrite(members);
    return true;
  }

  /// Semi-eager packing: when stored entries exceed 2n, drop stale and
  /// repeated entries from every bucket, one task per bucket, restoring
  /// the O(n) bound.
  void MaybeCompact() {
    if (stored_ <= 2 * vtx_bucket_.size()) return;
    const size_t before = stored_;
    std::vector<size_t> kept(num_open_ + 1);
    parallel_for(
        0, num_open_ + 1,
        [&](size_t d) {
          auto& vec = DestVector(d);
          // Keep one entry per live vertex: take each vertex out while
          // recording its bucket, so a repeated entry finds it gone, then
          // put the kept back. Only the task of a vertex's own destination
          // writes its slot; other tasks read it as stale either way.
          std::vector<bucket_id> kept_bucket;
          size_t live = 0;
          for (vertex_id v : vec) {
            std::atomic_ref<bucket_id> slot(vtx_bucket_[v]);
            const bucket_id b = slot.load(std::memory_order_relaxed);
            if (b == kNullBucket || Dest(b) != d) continue;
            slot.store(kNullBucket, std::memory_order_relaxed);
            vec[live++] = v;
            kept_bucket.push_back(b);
          }
          vec.resize(live);
          for (size_t i = 0; i < live; ++i) {
            std::atomic_ref<bucket_id>(vtx_bucket_[vec[i]])
                .store(kept_bucket[i], std::memory_order_relaxed);
          }
          kept[d] = live;
        },
        1);
    stored_ = 0;
    for (size_t c : kept) stored_ += c;
    nvram::Cost().ChargeWorkRead(before);
    nvram::Cost().ChargeWorkWrite(stored_);
  }

  BucketOrder order_;
  bucket_id max_bucket_;
  size_t num_open_;
  bucket_id cur_base_ = 0;   // key of open_[0]
  size_t cur_offset_ = 0;    // first possibly non-empty open bucket
  size_t stored_ = 0;
  std::vector<bucket_id> vtx_bucket_;
  std::vector<std::vector<vertex_id>> open_;
  std::vector<vertex_id> overflow_;
  nvram::TrackedAllocation tracked_;
};

}  // namespace sage
