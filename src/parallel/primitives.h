// Parallel sequence primitives (Section 2 of the paper): reduce, prefix sum
// (scan), filter, pack, tabulate. All run in O(n) work and O(log n) depth in
// the small-memory, matching the bounds the algorithms rely on.
//
// Implementations are block-based: a sequence is cut into blocks, each block
// is processed sequentially by one task, and per-block partial results are
// combined with a (short) sequential pass. This keeps constant factors low
// and depth logarithmic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nvram/execution_context.h"
#include "parallel/parallel.h"

namespace sage {

namespace internal {

/// Primitives charge their array traffic to the cost model at block
/// granularity (one call per ~kilo-element block). Under the App-Direct
/// policies this is cheap DRAM traffic; under kAllNvram (libvmmalloc) and
/// kMemoryMode the same temporaries pay NVRAM costs - the mechanism behind
/// the paper's 6.69x libvmmalloc slowdown (Figure 7).
inline void ChargePrimitiveRead(uint64_t words) {
  nvram::Cost().ChargeWorkRead(words);
}
inline void ChargePrimitiveWrite(uint64_t words) {
  nvram::Cost().ChargeWorkWrite(words);
}

inline size_t BlockSize(size_t n) {
  // Large enough to amortize task overhead, small enough to balance load.
  size_t b = internal::DefaultGranularity(n, num_workers());
  return std::max<size_t>(b, 1024);
}

inline size_t NumBlocks(size_t n, size_t block) {
  return (n + block - 1) / block;
}

/// Exclusive prefix sum of per-block partials under (op, id), in place, in
/// one sequential pass; returns the total. Uncharged: the block count
/// follows num_workers(), and the primitives' charges must not.
template <typename T, typename Op>
T ScanBlockPartials(std::vector<T>& partial, const Op& op, T id) {
  T total = id;
  for (T& p : partial) {
    T next = op(total, p);
    p = total;
    total = next;
  }
  return total;
}

}  // namespace internal

/// parallel_for whose every task sums the current model's fast-route
/// charges in one nvram::ChargeBatch and adds them once when it ends. For
/// loops where one charge covers one vertex; the totals equal
/// parallel_for's.
template <typename F>
void parallel_for_batched(size_t start, size_t end, const F& f,
                          size_t granularity = 0) {
  parallel_for_ranges(
      start, end,
      [&](size_t lo, size_t hi) {
        nvram::ChargeBatch batch(nvram::Cost());
        for (size_t i = lo; i < hi; ++i) f(i);
      },
      granularity);
}

/// Builds a vector of length n with a[i] = f(i), in parallel.
template <typename T, typename F>
std::vector<T> tabulate(size_t n, const F& f) {
  internal::ChargePrimitiveWrite(n);
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

/// Reduces f(0) op f(1) op ... op f(n-1) with identity `id`.
/// `op` must be associative; blocks are combined left-to-right.
template <typename T, typename F, typename Op>
T reduce(size_t n, const F& f, const Op& op, T id) {
  if (n == 0) return id;
  internal::ChargePrimitiveRead(n);
  const size_t block = internal::BlockSize(n);
  const size_t nb = internal::NumBlocks(n, block);
  if (nb == 1) {
    T acc = id;
    for (size_t i = 0; i < n; ++i) acc = op(acc, f(i));
    return acc;
  }
  std::vector<T> partial(nb, id);
  // Callbacks often charge per element (a frontier's degree sum), so each
  // block sums its charges in one batch.
  parallel_for_batched(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        T acc = id;
        for (size_t i = lo; i < hi; ++i) acc = op(acc, f(i));
        partial[b] = acc;
      },
      1);
  T acc = id;
  for (size_t b = 0; b < nb; ++b) acc = op(acc, partial[b]);
  return acc;
}

/// Sum of f(i) for i in [0, n).
template <typename T, typename F>
T reduce_add(size_t n, const F& f) {
  return reduce(
      n, f, [](T a, T b) { return a + b; }, T{});
}

/// Maximum of f(i) for i in [0, n); returns `id` when n == 0.
template <typename T, typename F>
T reduce_max(size_t n, const F& f, T id) {
  return reduce(
      n, f, [](T a, T b) { return a > b ? a : b; }, id);
}

/// Exclusive prefix sum of `a` in place under (op, id); returns the total.
template <typename T, typename Op>
T scan_inplace(std::vector<T>& a, const Op& op, T id) {
  const size_t n = a.size();
  if (n == 0) return id;
  internal::ChargePrimitiveRead(2 * n);
  internal::ChargePrimitiveWrite(n);
  const size_t block = internal::BlockSize(n);
  const size_t nb = internal::NumBlocks(n, block);
  if (nb == 1) {
    T acc = id;
    for (size_t i = 0; i < n; ++i) {
      T next = op(acc, a[i]);
      a[i] = acc;
      acc = next;
    }
    return acc;
  }
  std::vector<T> partial(nb, id);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        T acc = id;
        for (size_t i = lo; i < hi; ++i) acc = op(acc, a[i]);
        partial[b] = acc;
      },
      1);
  T total = internal::ScanBlockPartials(partial, op, id);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        T acc = partial[b];
        for (size_t i = lo; i < hi; ++i) {
          T next = op(acc, a[i]);
          a[i] = acc;
          acc = next;
        }
      },
      1);
  return total;
}

/// Exclusive prefix sum under addition; returns the total.
template <typename T>
T scan_add_inplace(std::vector<T>& a) {
  return scan_inplace(
      a, [](T x, T y) { return x + y; }, T{});
}

/// Returns elements of `in` satisfying `pred`, preserving order.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& in, const Pred& pred) {
  const size_t n = in.size();
  if (n == 0) return {};
  internal::ChargePrimitiveRead(2 * n);
  const size_t block = internal::BlockSize(n);
  const size_t nb = internal::NumBlocks(n, block);
  std::vector<size_t> counts(nb, 0);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t c = 0;
        for (size_t i = lo; i < hi; ++i) c += pred(in[i]) ? 1 : 0;
        counts[b] = c;
      },
      1);
  size_t total = internal::ScanBlockPartials(
      counts, [](size_t a, size_t b) { return a + b; }, size_t{0});
  std::vector<T> out(total);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t pos = counts[b];
        for (size_t i = lo; i < hi; ++i) {
          if (pred(in[i])) out[pos++] = in[i];
        }
      },
      1);
  return out;
}

/// Returns the indices i in [0, n) where pred(i) is true, in order.
template <typename IndexT, typename Pred>
std::vector<IndexT> pack_index(size_t n, const Pred& pred) {
  if (n == 0) return {};
  internal::ChargePrimitiveRead(2 * n);
  const size_t block = internal::BlockSize(n);
  const size_t nb = internal::NumBlocks(n, block);
  std::vector<size_t> counts(nb, 0);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t c = 0;
        for (size_t i = lo; i < hi; ++i) c += pred(i) ? 1 : 0;
        counts[b] = c;
      },
      1);
  size_t total = internal::ScanBlockPartials(
      counts, [](size_t a, size_t b) { return a + b; }, size_t{0});
  std::vector<IndexT> out(total);
  parallel_for(
      0, nb,
      [&](size_t b) {
        size_t lo = b * block, hi = std::min(n, lo + block);
        size_t pos = counts[b];
        for (size_t i = lo; i < hi; ++i) {
          if (pred(i)) out[pos++] = static_cast<IndexT>(i);
        }
      },
      1);
  return out;
}

/// Concatenates a vector of vectors into one contiguous vector, in parallel.
template <typename T>
std::vector<T> flatten(const std::vector<std::vector<T>>& parts) {
  const size_t k = parts.size();
  std::vector<size_t> offsets(k, 0);
  for (size_t i = 0; i < k; ++i) offsets[i] = parts[i].size();
  size_t total = scan_add_inplace(offsets);
  std::vector<T> out(total);
  parallel_for(
      0, k,
      [&](size_t i) {
        std::copy(parts[i].begin(), parts[i].end(), out.begin() + offsets[i]);
      },
      1);
  return out;
}

/// Counts elements of `in` satisfying `pred`.
template <typename T, typename Pred>
size_t count_if(const std::vector<T>& in, const Pred& pred) {
  return reduce_add<size_t>(in.size(),
                            [&](size_t i) { return pred(in[i]) ? 1 : 0; });
}

}  // namespace sage
