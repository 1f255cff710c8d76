#include "plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "algorithms/reference/sequential.h"
#include "common/random.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return sage::Hash64(sage::Hash64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

std::vector<sage::vertex_id> SourcePool(const sage::Graph& g, size_t size,
                                        uint64_t seed) {
  const std::vector<sage::vertex_id> label = sage::ref::Components(g);
  std::vector<size_t> count(label.size(), 0);
  for (sage::vertex_id l : label) ++count[l];
  const auto giant = static_cast<sage::vertex_id>(
      std::max_element(count.begin(), count.end()) - count.begin());
  std::vector<sage::vertex_id> pool;
  for (sage::vertex_id v = 0; v < label.size(); ++v) {
    if (label[v] == giant) pool.push_back(v);
  }
  sage::Rng rng(seed);
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Next(i)]);
  }
  if (pool.size() > size) pool.resize(size);
  return pool;
}

std::vector<std::vector<Request>> MakeRequestPlan(
    size_t mix_size, std::span<const sage::vertex_id> pool, double zipf_s,
    int clients, size_t passes, uint64_t seed) {
  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += zipf_s == 0.0 ? 1.0 : 1.0 / std::pow(double(r + 1), zipf_s);
    cdf[r] = total;
  }
  std::vector<std::vector<Request>> plan(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    sage::Rng rng(SubSeed(seed, 1000 + static_cast<uint64_t>(c)));
    auto& seq = plan[static_cast<size_t>(c)];
    seq.reserve(passes * mix_size);
    for (size_t p = 0; p < passes; ++p) {
      for (size_t a = 0; a < mix_size; ++a) {
        const double u = rng.NextDouble() * total;
        const size_t rank = std::min<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            pool.size() - 1);
        seq.push_back({static_cast<uint32_t>(a), pool[rank]});
      }
    }
  }
  return plan;
}

std::vector<std::vector<sage::EdgeUpdate>> MakeUpdateBatches(
    const sage::Graph& g, size_t batches, size_t batch_size, uint64_t seed) {
  const sage::vertex_id n = g.num_vertices();
  sage::Rng rng(seed);
  std::vector<std::vector<sage::EdgeUpdate>> out(batches);
  for (auto& batch : out) {
    batch.reserve(batch_size);
    while (batch.size() < batch_size) {
      const auto u = static_cast<sage::vertex_id>(rng.Next(n));
      if (batch.size() % 2 == 0) {
        const auto v = static_cast<sage::vertex_id>(rng.Next(n));
        if (u != v) batch.push_back(sage::EdgeUpdate::Insert(u, v));
      } else if (const sage::vertex_id deg = g.degree_uncharged(u); deg > 0) {
        const sage::vertex_id v = g.NeighborAt(u, rng.Next(deg));
        batch.push_back(sage::EdgeUpdate::Remove(u, v));
      }
    }
  }
  return out;
}

}  // namespace perfbench
