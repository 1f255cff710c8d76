// Parallel comparison sort (merge sort with parallel merge), counting sort
// for small key ranges, and sort-derived utilities (deduplication, random
// permutation). Used by graph building and several algorithms (maximal
// matching, connectivity contraction). The blocked partition behind the
// counting sort also drives bucket placement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

namespace internal {

inline constexpr size_t kSeqSortThreshold = 8192;
inline constexpr size_t kSeqMergeThreshold = 8192;

template <typename T, typename Cmp>
void ParallelMergeSwapped(const T* a, size_t na, const T* b, size_t nb, T* out,
                          const Cmp& cmp);

/// Merges sorted [a, a+na) and [b, b+nb) into out. Parallel by splitting the
/// larger input at its median and binary-searching the other.
template <typename T, typename Cmp>
void ParallelMerge(const T* a, size_t na, const T* b, size_t nb, T* out,
                   const Cmp& cmp) {
  if (na + nb <= kSeqMergeThreshold) {
    std::merge(a, a + na, b, b + nb, out, cmp);
    return;
  }
  if (na < nb) {
    ParallelMergeSwapped(a, na, b, nb, out, cmp);
    return;
  }
  size_t ma = na / 2;
  // Lower bound keeps the merge stable: equal keys from `a` come first.
  size_t mb = std::lower_bound(b, b + nb, a[ma], cmp) - b;
  par_do([&] { ParallelMerge(a, ma, b, mb, out, cmp); },
         [&] {
           ParallelMerge(a + ma, na - ma, b + mb, nb - mb, out + ma + mb, cmp);
         });
}

template <typename T, typename Cmp>
void ParallelMergeSwapped(const T* a, size_t na, const T* b, size_t nb, T* out,
                          const Cmp& cmp) {
  // Split on b's median; elements of `a` strictly less than it go left.
  size_t mb = nb / 2;
  size_t ma = std::lower_bound(a, a + na, b[mb], cmp) - a;
  // Keep stability: a-elements equal to b[mb] must land on the left side.
  while (ma < na && !cmp(b[mb], a[ma]) && !cmp(a[ma], b[mb])) ++ma;
  par_do([&] { ParallelMerge(a, ma, b, mb, out, cmp); },
         [&] {
           ParallelMerge(a + ma, na - ma, b + mb, nb - mb, out + ma + mb, cmp);
         });
}

/// Stable merge sort of [a, a+n), using buf as scratch. If `to_buf` the
/// sorted output lands in buf, otherwise in a.
template <typename T, typename Cmp>
void MergeSortRecurse(T* a, T* buf, size_t n, const Cmp& cmp, bool to_buf) {
  if (n <= kSeqSortThreshold) {
    std::stable_sort(a, a + n, cmp);
    if (to_buf) std::copy(a, a + n, buf);
    return;
  }
  size_t mid = n / 2;
  par_do([&] { MergeSortRecurse(a, buf, mid, cmp, !to_buf); },
         [&] { MergeSortRecurse(a + mid, buf + mid, n - mid, cmp, !to_buf); });
  if (to_buf) {
    ParallelMerge(a, mid, a + mid, n - mid, buf, cmp);
  } else {
    ParallelMerge(buf, mid, buf + mid, n - mid, a, cmp);
  }
}

/// Stable blocked partition, the passes of a counting sort: each block of
/// items counts its items per destination, the counts are prefix-summed
/// destination-major, and each block scatters its items behind those of
/// earlier blocks. Moves the items [0, n) to destinations [0, nd):
///  - dest(i) is item i's destination, or nd to drop the item. It is called
///    in the count pass and again in the scatter pass, so it must return
///    the same value both times.
///  - first(d, c) is called between the passes, for d = 0, ..., nd - 1 in
///    order, with the number c of items bound for d. It returns the
///    position of d's first item.
///  - emit(i, d, pos) is called once per kept item. The items of one
///    destination get consecutive positions from first(d, c) on, in item
///    order.
/// Blocks are at least 8x the destinations, so the count matrix stays below
/// n/8 words.
template <typename DestF, typename FirstF, typename EmitF>
void BlockedPartition(size_t n, size_t nd, const DestF& dest,
                      const FirstF& first, const EmitF& emit) {
  const size_t block = std::max(BlockSize(n), 8 * nd);
  const size_t nb = NumBlocks(n, block);
  // nb x nd, row-major: each block's count per destination, then its
  // position relative to the destination's first item.
  std::vector<size_t> pos(nb * nd, 0);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t* row = pos.data() + b * nd;
        for (size_t i = b * block, hi = std::min(n, i + block); i < hi; ++i) {
          const size_t d = dest(i);
          if (d < nd) ++row[d];
        }
      },
      1);
  std::vector<size_t> base(nd);
  for (size_t d = 0; d < nd; ++d) {
    size_t c = 0;
    for (size_t b = 0; b < nb; ++b) {
      const size_t cb = pos[b * nd + d];
      pos[b * nd + d] = c;
      c += cb;
    }
    base[d] = first(d, c);
  }
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t* row = pos.data() + b * nd;
        for (size_t i = b * block, hi = std::min(n, i + block); i < hi; ++i) {
          const size_t d = dest(i);
          if (d < nd) emit(i, d, base[d] + row[d]++);
        }
      },
      1);
}

}  // namespace internal

/// Stable parallel sort of `a` in place.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort_inplace(std::vector<T>& a, const Cmp& cmp = Cmp()) {
  // Sorting touches ~n log n words of working memory; charged up front.
  size_t levels = 1;
  for (size_t m = a.size(); m > 1; m >>= 1) ++levels;
  internal::ChargePrimitiveRead(a.size() * levels);
  internal::ChargePrimitiveWrite(a.size() * levels);
  if (a.size() <= internal::kSeqSortThreshold) {
    std::stable_sort(a.begin(), a.end(), cmp);
    return;
  }
  std::vector<T> buf(a.size());
  internal::MergeSortRecurse(a.data(), buf.data(), a.size(), cmp,
                             /*to_buf=*/false);
}

/// Stable parallel sort returning a new vector.
template <typename T, typename Cmp = std::less<T>>
std::vector<T> parallel_sort(std::vector<T> a, const Cmp& cmp = Cmp()) {
  parallel_sort_inplace(a, cmp);
  return a;
}

/// Counting sort of `keys` into bucket order for key range [0, num_buckets).
/// Returns (sorted order permutation, bucket start offsets of length
/// num_buckets + 1). Stable. Intended for small num_buckets.
template <typename KeyT>
std::pair<std::vector<size_t>, std::vector<size_t>> counting_sort(
    const std::vector<KeyT>& keys, size_t num_buckets) {
  std::vector<size_t> order(keys.size());
  std::vector<size_t> offsets(num_buckets + 1, 0);
  size_t running = 0;
  internal::BlockedPartition(
      keys.size(), num_buckets,
      [&](size_t i) { return static_cast<size_t>(keys[i]); },
      [&](size_t k, size_t c) {
        offsets[k] = running;
        running += c;
        return offsets[k];
      },
      [&](size_t i, size_t, size_t pos) { order[pos] = i; });
  offsets[num_buckets] = running;
  return {std::move(order), std::move(offsets)};
}

/// Removes duplicates from a sorted vector, in parallel.
template <typename T>
std::vector<T> unique_sorted(const std::vector<T>& sorted) {
  const size_t n = sorted.size();
  if (n == 0) return {};
  auto idx = pack_index<size_t>(
      n, [&](size_t i) { return i == 0 || sorted[i] != sorted[i - 1]; });
  return tabulate<T>(idx.size(), [&](size_t i) { return sorted[idx[i]]; });
}

/// Deterministic pseudo-random permutation of [0, n) for a given seed,
/// computed by sorting indices by a hash (O(n log n) work, O(log n) depth).
inline std::vector<uint32_t> random_permutation(size_t n, uint64_t seed) {
  Random rng(seed);
  auto keyed = tabulate<std::pair<uint64_t, uint32_t>>(n, [&](size_t i) {
    return std::make_pair(rng.ith_rand(i), static_cast<uint32_t>(i));
  });
  parallel_sort_inplace(keyed);
  return tabulate<uint32_t>(n, [&](size_t i) { return keyed[i].second; });
}

}  // namespace sage
