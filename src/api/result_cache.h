// ResultCache: the QueryService's epoch-keyed result cache.
//
// Entries are keyed by (graph epoch, algorithm, canonicalized execution
// parameters): two submissions that would provably run the identical
// computation on the identical snapshot share one entry, and a cached
// report replays the original run's summary, PSAM counters, and output
// bit-identically. Canonicalization folds in only the RunParams fields the
// algorithm declares it consumes (AlgorithmInfo::params_used plus the
// needs_source/needs_weights implications), so irrelevant knobs collapse
// to one key.
//
// The epoch is part of the key, which makes correctness under hot-swap
// structural: a query pinned to epoch N can only ever look up epoch-N
// entries, so a bumped graph never serves stale results. Retired epochs'
// entries are dead weight (no future query can pin them) and are dropped
// eagerly by the EpochManager retire listener the Engine registers.
//
// Eviction is LRU over an approximate byte budget (summary + output
// payload + key overhead). One mutex guards the map+list, and no report is
// copied or freed under it: entries hold shared immutable reports, a
// lookup takes a reference under the lock and copies after releasing it,
// an insert builds its shared report before locking, and evicted or
// dropped reports are released after unlocking. The multi-second kernel
// runs the cache fronts never touch it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/registry.h"
#include "api/run_context.h"
#include "api/run_report.h"
#include "common/thread_annotations.h"

namespace sage {

/// Monotonic counters describing cache effectiveness, surfaced in the
/// QueryService's stats JSON.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;      // LRU byte-budget evictions
  uint64_t invalidations = 0;  // entries dropped by epoch retirement
  uint64_t bytes = 0;          // current resident payload estimate
  uint64_t entries = 0;        // current entry count
};

class ResultCache {
 public:
  /// `max_bytes` bounds the resident payload estimate; 0 disables
  /// insertion entirely (every lookup misses).
  explicit ResultCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}
  SAGE_DISALLOW_COPY_AND_ASSIGN(ResultCache);

  /// Canonical cache key for a submission. `info` supplies the param-use
  /// mask; `epoch` is the snapshot the query pinned.
  static std::string CanonicalKey(uint64_t epoch, const AlgorithmInfo& info,
                                  const RunContext& ctx,
                                  const RunParams& params);

  /// Approximate resident bytes of a cached report (payload vectors +
  /// summary + fixed overhead).
  static uint64_t EstimateBytes(const RunReport& report);

  /// Copies the cached report for `key` into `out` and returns true on a
  /// hit (refreshing LRU recency). Counts a miss otherwise.
  bool Lookup(const std::string& key, RunReport* out);

  /// Inserts (or refreshes) `key`. Oversized reports (estimate above the
  /// whole budget) are not admitted.
  void Insert(const std::string& key, uint64_t epoch, const RunReport& report);

  /// Drops every entry keyed to `epoch` (called when the epoch retires:
  /// no future query can pin it, so its entries can never hit again).
  void DropEpoch(uint64_t epoch);

  /// Drops everything (admin/testing surface).
  void Clear();

  ResultCacheStats stats() const;

  uint64_t max_bytes() const { return max_bytes_; }

 private:
  using SharedReport = std::shared_ptr<const RunReport>;
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    uint64_t bytes = 0;
    SharedReport report;
  };
  using Lru = std::list<Entry>;

  /// Both move the erased entries' reports into `released`, which the
  /// caller destroys after unlocking.
  void EvictToBudgetLocked(std::vector<SharedReport>* released)
      SAGE_REQUIRES(mu_);
  void EraseLocked(Lru::iterator it, std::vector<SharedReport>* released)
      SAGE_REQUIRES(mu_);

  const uint64_t max_bytes_;
  mutable Mutex mu_;
  Lru lru_ SAGE_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, Lru::iterator> index_ SAGE_GUARDED_BY(mu_);
  ResultCacheStats stats_ SAGE_GUARDED_BY(mu_);
};

}  // namespace sage
