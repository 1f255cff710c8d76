// Tests for the semi-eager bucketing structure (Appendix B).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bucketing.h"

namespace sage {
namespace {

TEST(Buckets, YieldsIncreasingOrder) {
  // v's initial bucket is v % 5.
  Buckets b(100, [](vertex_id v) { return v % 5; },
            BucketOrder::kIncreasing);
  bucket_id last = 0;
  size_t total = 0;
  for (;;) {
    auto bkt = b.NextBucket();
    if (bkt.id == kNullBucket) break;
    EXPECT_GE(bkt.id, last);
    last = bkt.id;
    total += bkt.vertices.size();
    for (vertex_id v : bkt.vertices) EXPECT_EQ(v % 5, bkt.id);
  }
  EXPECT_EQ(total, 100u);
}

TEST(Buckets, YieldsDecreasingOrder) {
  Buckets b(100, [](vertex_id v) { return v % 7; },
            BucketOrder::kDecreasing, /*max_bucket=*/10);
  bucket_id last = 10;
  size_t total = 0;
  for (;;) {
    auto bkt = b.NextBucket();
    if (bkt.id == kNullBucket) break;
    EXPECT_LE(bkt.id, last);
    last = bkt.id;
    total += bkt.vertices.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST(Buckets, SkipsNullBucketVertices) {
  Buckets b(10,
            [](vertex_id v) { return v < 5 ? v : kNullBucket; },
            BucketOrder::kIncreasing);
  size_t total = 0;
  for (;;) {
    auto bkt = b.NextBucket();
    if (bkt.id == kNullBucket) break;
    total += bkt.vertices.size();
  }
  EXPECT_EQ(total, 5u);
}

TEST(Buckets, UpdateMovesVertexToLaterBucket) {
  Buckets b(4, [](vertex_id) { return 1; }, BucketOrder::kIncreasing);
  b.UpdateBuckets({{2, 5}});
  auto first = b.NextBucket();
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.vertices.size(), 3u);  // 0, 1, 3
  auto second = b.NextBucket();
  EXPECT_EQ(second.id, 5u);
  ASSERT_EQ(second.vertices.size(), 1u);
  EXPECT_EQ(second.vertices[0], 2u);
  EXPECT_EQ(b.NextBucket().id, kNullBucket);
}

TEST(Buckets, UpdateBelowCurrentClampsToCurrent) {
  Buckets b(3, [](vertex_id v) { return 3 + v; }, BucketOrder::kIncreasing);
  auto first = b.NextBucket();  // bucket 3 = {0}
  EXPECT_EQ(first.id, 3u);
  // Try to move vertex 2 (bucket 5) to bucket 0: clamps to the current
  // priority (never goes backwards).
  b.UpdateBuckets({{2, 0}});
  auto next = b.NextBucket();
  EXPECT_GE(next.id, 3u);
}

TEST(Buckets, NullUpdateRemovesVertex) {
  Buckets b(3, [](vertex_id) { return 2; }, BucketOrder::kIncreasing);
  b.UpdateBuckets({{1, kNullBucket}});
  auto bkt = b.NextBucket();
  EXPECT_EQ(bkt.vertices.size(), 2u);
  for (vertex_id v : bkt.vertices) EXPECT_NE(v, 1u);
}

TEST(Buckets, OverflowBucketsAreReached) {
  // Buckets far beyond the open window (128) land in overflow and must
  // still be yielded in order.
  Buckets b(6, [](vertex_id v) { return v * 1000; },
            BucketOrder::kIncreasing);
  std::vector<bucket_id> order;
  for (;;) {
    auto bkt = b.NextBucket();
    if (bkt.id == kNullBucket) break;
    order.push_back(bkt.id);
  }
  EXPECT_EQ(order, (std::vector<bucket_id>{0, 1000, 2000, 3000, 4000, 5000}));
}

TEST(Buckets, RefillYieldsEachVertexOnce) {
  // Vertex 0 moves between two buckets outside the open window; the refill
  // must place it, and NextBucket yield it, once.
  Buckets b(3, [](vertex_id v) { return v == 0 ? 1000 : kNullBucket; },
            BucketOrder::kIncreasing);
  b.UpdateBuckets({{0, 900}});
  auto bkt = b.NextBucket();
  EXPECT_EQ(bkt.id, 900u);
  EXPECT_EQ(bkt.vertices, std::vector<vertex_id>{0});
  EXPECT_EQ(b.NextBucket().id, kNullBucket);
}

/// Sequential model of Buckets: a map from vertex to bucket, a floor at the
/// key of the last extracted bucket, and extraction of the lowest key.
class BucketModel {
 public:
  BucketModel(std::vector<bucket_id> bucket, BucketOrder order,
              bucket_id max_bucket)
      : bucket_(std::move(bucket)), order_(order), max_bucket_(max_bucket) {}

  bucket_id Key(bucket_id b) const {
    return order_ == BucketOrder::kIncreasing ? b : max_bucket_ - b;
  }
  bucket_id floor_key() const { return floor_key_; }
  bucket_id BucketOf(vertex_id v) const { return bucket_[v]; }

  void Update(vertex_id v, bucket_id b) {
    if (b != kNullBucket && Key(b) < floor_key_) b = Key(floor_key_);
    bucket_[v] = b;
  }

  /// (bucket id, sorted members) of the next bucket; kNullBucket when empty.
  std::pair<bucket_id, std::vector<vertex_id>> Next() {
    bucket_id best = kNullBucket;
    for (bucket_id b : bucket_) {
      if (b != kNullBucket && (best == kNullBucket || Key(b) < Key(best))) {
        best = b;
      }
    }
    std::vector<vertex_id> members;
    if (best == kNullBucket) return {kNullBucket, members};
    for (vertex_id v = 0; v < bucket_.size(); ++v) {
      if (bucket_[v] == best) {
        members.push_back(v);
        bucket_[v] = kNullBucket;
      }
    }
    floor_key_ = Key(best);
    return {best, members};
  }

 private:
  std::vector<bucket_id> bucket_;
  BucketOrder order_;
  bucket_id max_bucket_;
  bucket_id floor_key_ = 0;
};

/// Replays a seeded random stream of updates and extractions against
/// Buckets (with `num_open` open buckets) and the model. Targets cover
/// removals, clamps below the floor, moves inside the open window, moves
/// out to overflow and back, and no-op moves; batches reach several
/// placement blocks.
void RunRandomStream(BucketOrder order, uint64_t seed, size_t num_open) {
  const vertex_id n = 6000;
  const bucket_id max_bucket = 2000;  // bounds keys in decreasing order
  Rng rng(seed);
  std::vector<bucket_id> init(n);
  for (auto& b : init) {
    b = rng.Next(8) == 0 ? kNullBucket
                         : static_cast<bucket_id>(rng.Next(300));
  }
  BucketModel model(init, order, max_bucket);
  Buckets buckets(n, [&](vertex_id v) { return init[v]; }, order,
                  order == BucketOrder::kDecreasing ? max_bucket : 0,
                  num_open);
  ASSERT_LE(buckets.StoredEntries(), 2u * n);
  auto target = [&](vertex_id v) -> bucket_id {
    const uint64_t floor = model.floor_key();
    uint64_t key;
    switch (rng.Next(6)) {
      case 0:
        return kNullBucket;
      case 1:  // below the floor: clamped
        key = floor - std::min<uint64_t>(floor, 1 + rng.Next(50));
        break;
      case 2:  // inside the open window
        key = floor + rng.Next(num_open);
        break;
      case 3:  // out to overflow
        key = floor + num_open + rng.Next(400);
        break;
      case 4:  // just around the window's edge
        key = floor + num_open - 4 + rng.Next(8);
        break;
      default:  // stays (or enters at the floor)
        if (model.BucketOf(v) != kNullBucket) return model.BucketOf(v);
        key = floor;
        break;
    }
    key = std::min<uint64_t>(key, max_bucket);
    return model.Key(static_cast<bucket_id>(key));
  };
  for (int step = 0; step < 600; ++step) {
    if (rng.Next(2) == 0) {
      // A batch of distinct vertices, sometimes larger than one block.
      const size_t k = rng.Next(4) == 0 ? 1500 + rng.Next(4000)
                                        : 1 + rng.Next(200);
      std::vector<vertex_id> ids(n);
      for (vertex_id v = 0; v < n; ++v) ids[v] = v;
      for (size_t i = 0; i < k; ++i) {
        std::swap(ids[i], ids[i + rng.Next(n - i)]);
      }
      std::vector<std::pair<vertex_id, bucket_id>> updates(k);
      for (size_t i = 0; i < k; ++i) {
        updates[i] = {ids[i], target(ids[i])};
        model.Update(ids[i], updates[i].second);
      }
      buckets.UpdateBuckets(updates);
      ASSERT_LE(buckets.StoredEntries(), 2u * n) << "step " << step;
      continue;
    }
    auto [id, expect] = model.Next();
    auto got = buckets.NextBucket();
    ASSERT_EQ(got.id, id) << "step " << step;
    std::sort(got.vertices.begin(), got.vertices.end());
    ASSERT_EQ(std::adjacent_find(got.vertices.begin(), got.vertices.end()),
              got.vertices.end())
        << "bucket " << id << " repeats a vertex at step " << step;
    ASSERT_EQ(got.vertices, expect) << "bucket " << id << " step " << step;
    ASSERT_LE(buckets.StoredEntries(), 2u * n);
    if (id == kNullBucket) return;
  }
}

// The default window and an 8-bucket one, whose floor crosses it often
// enough to refill from overflow many times per stream.
TEST(Buckets, RandomStreamsMatchSequentialModelIncreasing) {
  for (uint64_t seed : {1, 2, 3}) {
    for (size_t num_open : {128, 8}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " open "
                                      << num_open);
      RunRandomStream(BucketOrder::kIncreasing, seed, num_open);
    }
  }
}

TEST(Buckets, RandomStreamsMatchSequentialModelDecreasing) {
  for (uint64_t seed : {4, 5, 6}) {
    for (size_t num_open : {128, 8}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " open "
                                      << num_open);
      RunRandomStream(BucketOrder::kDecreasing, seed, num_open);
    }
  }
}

TEST(Buckets, StaleEntriesAreFilteredAtExtraction) {
  Buckets b(4, [](vertex_id) { return 1; }, BucketOrder::kIncreasing);
  b.UpdateBuckets({{0, 2}});
  b.UpdateBuckets({{0, 3}});
  b.UpdateBuckets({{0, 4}});
  auto b1 = b.NextBucket();
  EXPECT_EQ(b1.id, 1u);
  EXPECT_EQ(b1.vertices.size(), 3u);  // 1, 2, 3
  auto b4 = b.NextBucket();
  EXPECT_EQ(b4.id, 4u);
  ASSERT_EQ(b4.vertices.size(), 1u);
  EXPECT_EQ(b4.vertices[0], 0u);
}

TEST(Buckets, SemiEagerCompactionBoundsStoredEntries) {
  // Repeatedly re-bucket the same n vertices; stored entries must stay
  // O(n) (the PSAM small-memory requirement) instead of growing with the
  // number of updates.
  const vertex_id n = 1000;
  Buckets b(n, [](vertex_id) { return 0; }, BucketOrder::kIncreasing);
  for (int round = 1; round <= 50; ++round) {
    std::vector<std::pair<vertex_id, bucket_id>> updates;
    for (vertex_id v = 0; v < n; ++v) {
      updates.push_back({v, static_cast<bucket_id>(round)});
    }
    b.UpdateBuckets(updates);
    ASSERT_LE(b.StoredEntries(), 2u * n + n);
  }
}

TEST(Buckets, KCoreStylePeelingSequence) {
  // Simulate peeling: all vertices start in bucket = degree-ish values and
  // move down-clamped as neighbors are removed; the extraction sequence
  // must be non-decreasing.
  const vertex_id n = 200;
  Buckets b(n, [](vertex_id v) { return (v * 13) % 20; },
            BucketOrder::kIncreasing);
  bucket_id last = 0;
  size_t total = 0;
  while (total < n) {
    auto bkt = b.NextBucket();
    if (bkt.id == kNullBucket) break;
    EXPECT_GE(bkt.id, last);
    last = bkt.id;
    total += bkt.vertices.size();
    // Bump a few untouched vertices upward, as peeling updates would.
    std::vector<std::pair<vertex_id, bucket_id>> updates;
    for (vertex_id v : bkt.vertices) {
      vertex_id w = (v + 1) % n;
      if (b.BucketOf(w) != kNullBucket) {
        updates.push_back({w, b.BucketOf(w) + 1});
      }
    }
    b.UpdateBuckets(updates);
  }
  EXPECT_EQ(total, n);
}

}  // namespace
}  // namespace sage
