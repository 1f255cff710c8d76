#include "api/result_cache.h"

#include <cstdio>
#include <utility>
#include <variant>

namespace sage {

namespace {

// Doubles in the key print with full precision so distinct values never
// collide and equal values always agree.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.size()) * sizeof(T);
}

uint64_t OutputBytes(const AlgoOutput& out) {
  return std::visit(
      [](const auto& value) -> uint64_t {
        using V = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<V, std::monostate>) {
          return 0;
        } else if constexpr (std::is_same_v<V, LddResult>) {
          return VectorBytes(value.cluster) + VectorBytes(value.parent) +
                 VectorBytes(value.round);
        } else if constexpr (std::is_same_v<V, BiconnectivityResult>) {
          return VectorBytes(value.node_label) + VectorBytes(value.parent) +
                 VectorBytes(value.preorder) +
                 VectorBytes(value.subtree_size);
        } else if constexpr (std::is_same_v<V, KCoreResult>) {
          return VectorBytes(value.coreness);
        } else if constexpr (std::is_same_v<V, DensestSubgraphResult>) {
          return VectorBytes(value.members);
        } else if constexpr (std::is_same_v<V, TriangleCountResult>) {
          return sizeof(TriangleCountResult);
        } else if constexpr (std::is_same_v<V, PageRankResult>) {
          return VectorBytes(value.rank);
        } else {
          return VectorBytes(value);
        }
      },
      out);
}

}  // namespace

std::string ResultCache::CanonicalKey(uint64_t epoch,
                                      const AlgorithmInfo& info,
                                      const RunContext& ctx,
                                      const RunParams& params) {
  // Execution-affecting context first. Enum values are stable small ints;
  // deadline/cancel are excluded (they bound the run, not its result), as
  // is prefetch (counter- and output-bit-identical by contract, pinned by
  // tests/prefetch_test.cc).
  std::string key;
  key.reserve(128);
  key += "e=" + std::to_string(epoch);
  key += "|a=" + info.name;
  key += "|p=" + std::to_string(static_cast<int>(ctx.policy));
  key += "|l=" + std::to_string(static_cast<int>(ctx.graph_layout));
  key += "|w=" + Num(ctx.omega);
  key += "|em=" +
         std::to_string(static_cast<int>(ctx.edge_map.sparse_variant)) + "," +
         std::to_string(static_cast<int>(ctx.edge_map.mode));
  // Algorithm knobs: only what this algorithm consumes, so runs differing
  // in an ignored field collapse to one entry.
  if (info.needs_source) key += "|src=" + std::to_string(params.source);
  if (info.needs_weights) key += "|ws=" + std::to_string(params.weight_seed);
  if (info.params_used & kParamSeed) {
    key += "|seed=" + std::to_string(params.seed);
  }
  if (info.params_used & kParamLddBeta) {
    key += "|beta=" + Num(params.ldd_beta);
  }
  if (info.params_used & kParamPagerank) {
    key += "|preps=" + Num(params.pagerank_epsilon) +
           "|primax=" + std::to_string(params.pagerank_max_iters);
  }
  if (info.params_used & kParamSetCoverEps) {
    key += "|sceps=" + Num(params.set_cover_eps);
  }
  if (info.params_used & kParamSpannerK) {
    key += "|spank=" + std::to_string(params.spanner_k);
  }
  if (info.params_used & kParamFilterBlock) {
    key += "|fb=" + std::to_string(params.filter_block_size);
  }
  return key;
}

uint64_t ResultCache::EstimateBytes(const RunReport& report) {
  // Fixed overhead per entry (report struct, key, list/map nodes) plus the
  // variable payload. An estimate, not an audit: the budget bounds order of
  // magnitude, and eviction tests use known payload sizes.
  return sizeof(RunReport) + 256 + report.summary.size() +
         OutputBytes(report.output);
}

bool ResultCache::Lookup(const std::string& key, RunReport* out) {
  SharedReport report;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    ++stats_.hits;
    report = it->second->report;
  }
  *out = *report;
  return true;
}

void ResultCache::Insert(const std::string& key, uint64_t epoch,
                         const RunReport& report) {
  const uint64_t bytes = EstimateBytes(report);
  if (bytes > max_bytes_) return;  // would evict the whole cache for one row
  SharedReport shared = std::make_shared<const RunReport>(report);
  std::vector<SharedReport> released;  // destroyed after the lock
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (identical by construction; keep the newer copy so
    // epoch bookkeeping stays consistent).
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.bytes += bytes - it->second->bytes;
    it->second->bytes = bytes;
    released.push_back(std::exchange(it->second->report, std::move(shared)));
    it->second->epoch = epoch;
  } else {
    lru_.push_front(Entry{key, epoch, bytes, std::move(shared)});
    index_[key] = lru_.begin();
    stats_.bytes += bytes;
    ++stats_.entries;
    ++stats_.insertions;
  }
  EvictToBudgetLocked(&released);
}

void ResultCache::DropEpoch(uint64_t epoch) {
  std::vector<SharedReport> released;  // destroyed after the lock
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->epoch == epoch) {
      ++stats_.invalidations;
      EraseLocked(it, &released);
    }
    it = next;
  }
}

void ResultCache::Clear() {
  std::vector<SharedReport> released;  // destroyed after the lock
  MutexLock lock(mu_);
  stats_.invalidations += lru_.size();
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    EraseLocked(it, &released);
    it = next;
  }
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ResultCache::EvictToBudgetLocked(std::vector<SharedReport>* released) {
  while (stats_.bytes > max_bytes_ && !lru_.empty()) {
    ++stats_.evictions;
    EraseLocked(std::prev(lru_.end()), released);
  }
}

void ResultCache::EraseLocked(Lru::iterator it,
                              std::vector<SharedReport>* released) {
  stats_.bytes -= it->bytes;
  --stats_.entries;
  released->push_back(std::move(it->report));
  index_.erase(it->key);
  lru_.erase(it);
}

}  // namespace sage
