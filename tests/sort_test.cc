// Tests for parallel sort, counting sort, and sort-derived utilities.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "parallel/sort.h"

namespace sage {
namespace {

TEST(ParallelSort, SortsRandomInput) {
  Rng rng(1);
  const size_t n = 200000;
  std::vector<uint64_t> a(n);
  for (auto& x : a) x = rng.Next();
  auto expect = a;
  std::sort(expect.begin(), expect.end());
  parallel_sort_inplace(a);
  EXPECT_EQ(a, expect);
}

TEST(ParallelSort, StableOnEqualKeys) {
  // Sort pairs by first only; second must preserve input order.
  const size_t n = 100000;
  auto a = tabulate<std::pair<uint32_t, uint32_t>>(n, [](size_t i) {
    return std::make_pair(static_cast<uint32_t>(Hash64(i) % 16),
                          static_cast<uint32_t>(i));
  });
  parallel_sort_inplace(
      a, [](const auto& x, const auto& y) { return x.first < y.first; });
  for (size_t i = 1; i < n; ++i) {
    ASSERT_LE(a[i - 1].first, a[i].first);
    if (a[i - 1].first == a[i].first) {
      ASSERT_LT(a[i - 1].second, a[i].second);
    }
  }
}

TEST(ParallelSort, AlreadySortedAndReversed) {
  auto inc = tabulate<int>(50000, [](size_t i) { return static_cast<int>(i); });
  auto a = inc;
  parallel_sort_inplace(a);
  EXPECT_EQ(a, inc);
  auto rev = inc;
  std::reverse(rev.begin(), rev.end());
  parallel_sort_inplace(rev);
  EXPECT_EQ(rev, inc);
}

class SortSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SortSizeSweep, MatchesStdSort) {
  size_t n = GetParam();
  Rng rng(n + 99);
  std::vector<uint32_t> a(n);
  for (auto& x : a) x = static_cast<uint32_t>(rng.Next(1000));
  auto expect = a;
  std::stable_sort(expect.begin(), expect.end());
  parallel_sort_inplace(a);
  EXPECT_EQ(a, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizeSweep,
                         ::testing::Values(0, 1, 2, 10, 1000, 8192, 8193,
                                           65536, 100001));

TEST(CountingSort, BucketsAndOrderCorrect) {
  Rng rng(5);
  const size_t n = 100000, buckets = 17;
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.Next(buckets));
  auto [order, offsets] = counting_sort(keys, buckets);
  ASSERT_EQ(order.size(), n);
  ASSERT_EQ(offsets.size(), buckets + 1);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[buckets], n);
  // Each bucket range contains exactly the right keys, stably ordered.
  for (size_t b = 0; b < buckets; ++b) {
    for (size_t i = offsets[b]; i < offsets[b + 1]; ++i) {
      ASSERT_EQ(keys[order[i]], b);
      if (i > offsets[b]) {
        ASSERT_LT(order[i - 1], order[i]);  // stability
      }
    }
  }
}

TEST(CountingSort, EmptyInput) {
  auto [order, offsets] = counting_sort(std::vector<uint32_t>{}, 4);
  EXPECT_TRUE(order.empty());
  ASSERT_EQ(offsets.size(), 5u);
  for (auto o : offsets) EXPECT_EQ(o, 0u);
}

TEST(BlockedPartition, DropsItemsAndPlacesFromFirstPositions) {
  Rng rng(6);
  const size_t n = 50000, nd = 9;
  std::vector<uint32_t> dest(n);  // nd drops the item
  for (auto& d : dest) d = static_cast<uint32_t>(rng.Next(nd + 1));
  // Destination d starts at (n + 7) * d + 7, as an append behind 7
  // entries would; each has room for every item.
  std::vector<size_t> out((n + 7) * nd, n), first(nd), count(nd);
  size_t calls = 0;
  internal::BlockedPartition(
      n, nd, [&](size_t i) { return size_t{dest[i]}; },
      [&](size_t d, size_t c) {
        EXPECT_EQ(d, calls++);  // in destination order
        count[d] = c;
        return first[d] = (n + 7) * d + 7;
      },
      [&](size_t i, size_t d, size_t pos) {
        EXPECT_EQ(dest[i], d);
        out[pos] = i;
      });
  ASSERT_EQ(calls, nd);
  for (size_t d = 0; d < nd; ++d) {
    std::vector<size_t> expect;
    for (size_t i = 0; i < n; ++i) {
      if (dest[i] == d) expect.push_back(i);
    }
    ASSERT_EQ(count[d], expect.size());
    // Consecutive positions from first[d] on, in item order.
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           out.begin() + static_cast<ptrdiff_t>(first[d])));
  }
}

TEST(UniqueSorted, RemovesDuplicates) {
  std::vector<int> a{1, 1, 2, 3, 3, 3, 7, 9, 9};
  std::vector<int> expect{1, 2, 3, 7, 9};
  EXPECT_EQ(unique_sorted(a), expect);
  EXPECT_TRUE(unique_sorted(std::vector<int>{}).empty());
}

TEST(RandomPermutation, IsAPermutation) {
  const size_t n = 50000;
  auto perm = random_permutation(n, 123);
  ASSERT_EQ(perm.size(), n);
  std::vector<bool> seen(n, false);
  for (auto p : perm) {
    ASSERT_LT(p, n);
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(RandomPermutation, DeterministicPerSeedDistinctAcrossSeeds) {
  auto a = random_permutation(1000, 7);
  auto b = random_permutation(1000, 7);
  auto c = random_permutation(1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace sage
