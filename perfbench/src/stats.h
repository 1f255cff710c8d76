// Order statistics for the benchmark's reports.
//
// Percentiles use the nearest-rank definition over the sorted samples. A
// tail percentile is reported only when at least kMinBeyond samples lie
// strictly above its rank, so a p99 never rests on a handful of requests;
// every reported percentile travels with its sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile's rank before it is reported.
inline constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `q` among `n` samples (n >= 1).
inline size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  // Tolerate representation error in q*n (0.9 * 100 = 90.00000000000001).
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Samples strictly above the rank of quantile `q` among `n` samples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// True when quantile `q` of `n` samples has at least kMinBeyond samples
/// beyond it.
inline bool Reportable(size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinBeyond;
}

/// Nearest-rank quantile `q` of `samples`; NaN when there are none.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Median, or 0 when there are no samples: the value a per-layer metric
/// reports on a workload that bypasses its layer.
inline double MedianOr0(std::vector<double> samples) {
  return samples.empty() ? 0.0 : Median(std::move(samples));
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
