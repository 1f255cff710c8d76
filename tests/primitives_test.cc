// Tests for parallel sequence primitives: reduce, scan, filter, pack.
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

TEST(Tabulate, ProducesFunctionValues) {
  auto v = tabulate<int>(1000, [](size_t i) { return static_cast<int>(2 * i); });
  ASSERT_EQ(v.size(), 1000u);
  for (size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], static_cast<int>(2 * i));
}

TEST(Reduce, SumMatchesSequential) {
  const size_t n = 1 << 18;
  uint64_t got = reduce_add<uint64_t>(n, [](size_t i) { return i; });
  EXPECT_EQ(got, static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(Reduce, EmptyReturnsIdentity) {
  EXPECT_EQ(reduce_add<uint64_t>(0, [](size_t) { return 1; }), 0u);
  EXPECT_EQ(reduce_max<int>(
                0, [](size_t) { return 7; }, -1),
            -1);
}

TEST(Reduce, MaxFindsMaximum) {
  Rng rng(42);
  const size_t n = 50000;
  std::vector<uint64_t> a(n);
  uint64_t expect = 0;
  for (auto& x : a) {
    x = rng.Next(1 << 30);
    expect = std::max(expect, x);
  }
  EXPECT_EQ(reduce_max<uint64_t>(
                n, [&](size_t i) { return a[i]; }, 0),
            expect);
}

TEST(Scan, ExclusivePrefixSums) {
  const size_t n = 100003;  // deliberately not block-aligned
  std::vector<uint64_t> a(n, 1);
  uint64_t total = scan_add_inplace(a);
  EXPECT_EQ(total, n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], i);
}

TEST(Scan, MatchesSequentialOnRandomInput) {
  Rng rng(7);
  const size_t n = 81921;
  std::vector<uint64_t> a(n), expect(n);
  for (auto& x : a) x = rng.Next(100);
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    expect[i] = acc;
    acc += a[i];
  }
  uint64_t total = scan_add_inplace(a);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(a, expect);
}

TEST(Scan, EmptyAndSingle) {
  std::vector<int> empty;
  EXPECT_EQ(scan_add_inplace(empty), 0);
  std::vector<int> one{5};
  EXPECT_EQ(scan_add_inplace(one), 5);
  EXPECT_EQ(one[0], 0);
}

TEST(Scan, CustomOperatorMax) {
  std::vector<int> a{3, 1, 4, 1, 5, 9, 2, 6};
  int total = scan_inplace(
      a, [](int x, int y) { return std::max(x, y); }, 0);
  EXPECT_EQ(total, 9);
  std::vector<int> expect{0, 3, 3, 4, 4, 5, 9, 9};
  EXPECT_EQ(a, expect);
}

TEST(Filter, KeepsMatchingInOrder) {
  const size_t n = 100000;
  auto v = tabulate<int>(n, [](size_t i) { return static_cast<int>(i); });
  auto evens = filter(v, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(evens.size(), n / 2);
  for (size_t i = 0; i < evens.size(); ++i) {
    ASSERT_EQ(evens[i], static_cast<int>(2 * i));
  }
}

TEST(Filter, NoneAndAll) {
  auto v = tabulate<int>(5000, [](size_t i) { return static_cast<int>(i); });
  EXPECT_TRUE(filter(v, [](int) { return false; }).empty());
  EXPECT_EQ(filter(v, [](int) { return true; }), v);
}

TEST(PackIndex, ReturnsMatchingIndices) {
  const size_t n = 65537;
  auto idx = pack_index<uint32_t>(n, [](size_t i) { return i % 3 == 0; });
  ASSERT_EQ(idx.size(), (n + 2) / 3);
  for (size_t i = 0; i < idx.size(); ++i) ASSERT_EQ(idx[i], 3 * i);
}

TEST(FilterAndPackIndex, ChargesDoNotDependOnWidth) {
  // The block count follows the width; the charges must not. 50,000 keys
  // span several blocks at every width.
  const size_t n = 50000;
  auto keys = tabulate<uint32_t>(
      n, [](size_t i) { return static_cast<uint32_t>(i * 2654435761u); });
  std::vector<nvram::CostTotals> totals;
  for (int width : {1, 2, 4}) {
    Scheduler::Reset(width);
    nvram::CostScope scope;
    auto kept = filter(keys, [](uint32_t k) { return k % 3 == 0; });
    auto idx = pack_index<uint32_t>(n, [&](size_t i) { return keys[i] & 1; });
    totals.push_back(scope.Delta());
    EXPECT_FALSE(kept.empty());
    EXPECT_FALSE(idx.empty());
  }
  Scheduler::Reset(0);
  for (const auto& t : totals) {
    EXPECT_EQ(t.dram_reads, totals[0].dram_reads);
    EXPECT_EQ(t.dram_writes, totals[0].dram_writes);
    EXPECT_EQ(t.nvram_reads, totals[0].nvram_reads);
    EXPECT_EQ(t.nvram_writes, totals[0].nvram_writes);
  }
  EXPECT_EQ(totals[0].dram_reads, 4 * n);  // 2n words each
}

TEST(Flatten, ConcatenatesInOrder) {
  std::vector<std::vector<int>> parts{{1, 2}, {}, {3}, {4, 5, 6}};
  auto flat = flatten(parts);
  std::vector<int> expect{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(flat, expect);
}

TEST(CountIf, CountsMatches) {
  auto v = tabulate<int>(10000, [](size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(count_if(v, [](int x) { return x < 100; }), 100u);
}

// Property-style sweep: scan/reduce/filter agree with sequential versions
// across a range of sizes, including tiny and non-aligned ones.
class PrimitiveSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PrimitiveSizeSweep, ScanReduceFilterAgree) {
  size_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<uint64_t> a(n);
  for (auto& x : a) x = rng.Next(1000);
  uint64_t seq_sum = std::accumulate(a.begin(), a.end(), uint64_t{0});
  EXPECT_EQ(reduce_add<uint64_t>(n, [&](size_t i) { return a[i]; }), seq_sum);
  std::vector<uint64_t> scanned = a;
  EXPECT_EQ(scan_add_inplace(scanned), seq_sum);
  auto big = filter(a, [](uint64_t x) { return x >= 500; });
  size_t expect_count = 0;
  for (auto x : a) expect_count += x >= 500;
  EXPECT_EQ(big.size(), expect_count);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitiveSizeSweep,
                         ::testing::Values(0, 1, 2, 3, 17, 100, 1023, 1024,
                                           1025, 4097, 50000, 262144));

}  // namespace
}  // namespace sage
