// PSAM cost accounting (Section 3 of the paper).
//
// The Parallel Semi-Asymmetric Model charges unit cost for DRAM reads/writes
// and NVRAM reads, and cost omega > 1 for NVRAM writes. This module provides
// the instrumentation that every Sage and baseline code path reports into:
//
//   - per-thread sharded counters (no contention on the hot path) for
//     NVRAM reads, NVRAM writes, DRAM reads, DRAM writes;
//   - an EmulationConfig carrying omega, per-word latencies, NUMA penalties
//     and the MemoryMode cache configuration;
//   - PsamCost(): the model cost  W = dram + nvram_reads + omega*nvram_writes;
//   - EmulatedNanos(): a projected running time under the configured device
//     latencies, used by benchmarks to report NVRAM-shaped wall-clock.
//
// A CostModel is a plain instrument, not a singleton: every
// nvram::ExecutionContext (execution_context.h) owns one, so concurrent
// engine runs account independently. Charging code reaches the *current*
// model - the one belonging to the query the calling worker is executing -
// through nvram::Cost() (execution_context.h), which resolves the
// scheduler's task tag and falls back to the process-wide default context
// outside any run.
//
// Without Optane DIMMs, accounting *is* the NVRAM: all experiments charge
// accesses here and derive device behaviour from the config.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "parallel/scheduler.h"

namespace sage::nvram {

/// Which emulated device an access touches.
enum class MemoryKind : uint8_t {
  kDram = 0,
  kNvram = 1,
};

/// How a benchmark configuration maps program data onto devices. This models
/// the four configurations of Figure 7 plus Memory Mode (Figure 1).
enum class AllocPolicy : uint8_t {
  /// Everything in DRAM (GBBS-DRAM / Sage-DRAM rows).
  kAllDram = 0,
  /// Graph in NVRAM, mutable data in DRAM (Sage-NVRAM; App-Direct).
  kGraphNvram = 1,
  /// All heap data in NVRAM (GBBS-NVRAM via libvmmalloc).
  kAllNvram = 2,
  /// All data nominally in NVRAM behind a direct-mapped DRAM cache
  /// (Optane Memory Mode; GBBS-MemMode / Galois rows of Figure 1).
  kMemoryMode = 3,
};

/// Returns a short printable name for an AllocPolicy.
const char* AllocPolicyName(AllocPolicy policy);

/// Where the graph region physically lives, independent of the AllocPolicy.
/// In-memory graphs defer to the policy; an mmap-ed .bsadj image *is*
/// NVRAM-resident, so its reads charge as NVRAM even under kAllDram (you
/// cannot declare a file mapping into DRAM by policy). kMemoryMode keeps
/// its cache simulation either way - Memory Mode already models NVRAM
/// behind a DRAM cache.
enum class GraphResidence : uint8_t {
  /// The AllocPolicy decides (in-memory CSR arrays).
  kPolicy = 0,
  /// The graph is a read-only NVRAM file mapping (binary_format.h).
  kMappedNvram = 1,
};

/// Placement of the (read-only) graph across emulated NUMA sockets
/// (Section 5.2 of the paper).
enum class GraphLayout : uint8_t {
  /// One copy of the graph per socket; every read is socket-local. This is
  /// Sage's layout and the default.
  kReplicated = 0,
  /// Graph stored on socket 0 only; threads on other sockets pay the remote
  /// multiplier on every graph read.
  kSingleSocket = 1,
  /// Graph pages interleaved across sockets (numactl -i all); roughly half
  /// of all reads are remote.
  kInterleaved = 2,
};

/// Device parameters for the emulated NVRAM. Defaults follow the paper's
/// measurements [50, 96]: NVRAM reads ~3x DRAM reads, NVRAM writes ~4x
/// NVRAM reads (~12x DRAM), i.e. omega = 4 relative to NVRAM reads.
struct EmulationConfig {
  /// Relative cost of an NVRAM write vs. an NVRAM read (the PSAM omega).
  double omega = 4.0;
  /// Emulated latency per 8-byte word read from DRAM, in nanoseconds.
  double dram_read_ns = 1.0;
  /// Emulated latency per word written to DRAM.
  double dram_write_ns = 1.0;
  /// Emulated latency per word read from local-socket NVRAM (~3x DRAM).
  double nvram_read_ns = 3.0;
  /// Multiplier applied to NVRAM accesses that cross the socket boundary.
  /// Section 5.2 measures interleaved cross-socket reads at 3.7x the
  /// single-socket time despite 2x the threads, i.e. an effective ~7.5x
  /// per-thread penalty with only half the accesses remote; the default
  /// 14x per remote access reproduces that (the excess over raw latency is
  /// the on-DIMM cache thrashing the paper describes).
  double remote_nvram_multiplier = 14.0;
  /// Number of emulated sockets for the NUMA model.
  int num_sockets = 2;
  /// Words per direct-mapped MemoryMode cache line (Optane media access
  /// granularity is 256 B = 32 words).
  size_t memory_mode_line_words = 32;
  /// Lines in the per-thread sampled MemoryMode tag array.
  size_t memory_mode_lines = 1 << 16;

  /// Emulated latency of an NVRAM write (= omega * nvram_read_ns).
  double nvram_write_ns() const { return omega * nvram_read_ns; }
};

/// Aggregated access totals (word granularity).
struct CostTotals {
  uint64_t dram_reads = 0;
  uint64_t dram_writes = 0;
  uint64_t nvram_reads = 0;
  uint64_t nvram_writes = 0;
  /// NVRAM words pulled in by the prefetch pipeline (graph/prefetch.h)
  /// ahead of compute. Attributed distinctly: these reads happen off the
  /// critical path, so they are excluded from PsamCost and EmulatedNanos,
  /// and the compute wave's own graph-read charges stay untouched
  /// (prefetch on/off leaves the PSAM counters bit-identical).
  uint64_t nvram_prefetch_reads = 0;
  uint64_t remote_nvram_accesses = 0;
  uint64_t memory_mode_hits = 0;
  uint64_t memory_mode_misses = 0;

  CostTotals& operator+=(const CostTotals& o) {
    dram_reads += o.dram_reads;
    dram_writes += o.dram_writes;
    nvram_reads += o.nvram_reads;
    nvram_writes += o.nvram_writes;
    nvram_prefetch_reads += o.nvram_prefetch_reads;
    remote_nvram_accesses += o.remote_nvram_accesses;
    memory_mode_hits += o.memory_mode_hits;
    memory_mode_misses += o.memory_mode_misses;
    return *this;
  }
  CostTotals operator-(const CostTotals& o) const {
    CostTotals r = *this;
    r.dram_reads -= o.dram_reads;
    r.dram_writes -= o.dram_writes;
    r.nvram_reads -= o.nvram_reads;
    r.nvram_writes -= o.nvram_writes;
    r.nvram_prefetch_reads -= o.nvram_prefetch_reads;
    r.remote_nvram_accesses -= o.remote_nvram_accesses;
    r.memory_mode_hits -= o.memory_mode_hits;
    r.memory_mode_misses -= o.memory_mode_misses;
    return r;
  }

  /// PSAM work contribution of these accesses for asymmetry omega:
  /// unit cost everywhere except NVRAM writes, which cost omega.
  /// Prefetched reads are off the critical path and excluded.
  double PsamCost(double omega) const {
    return static_cast<double>(dram_reads + dram_writes + nvram_reads) +
           omega * static_cast<double>(nvram_writes);
  }

  std::string ToString() const;

  /// The counters as a one-line JSON object (the "counters" sub-object of
  /// RunReport::ToJson and of every sage_bench record). Defined here so
  /// growing CostTotals cannot silently desynchronize the two emitters.
  std::string ToJson() const;
};

class CostModel;

/// Per-task sum of one model's fast-route charges. While a batch is open
/// on a thread, every charge of its model that takes a fast route (see
/// CostModel) adds to the batch instead of the model's counters; the batch
/// adds its sums to the model once, when it closes. The PSAM counts words,
/// not calls, so totals stay bit-identical. Charges of any other model -
/// a job of another run executed here by help-while-waiting - and
/// slow-route charges, whose effect depends on the hint or the order
/// (MemoryMode, NUMA), bypass the batch. A batch opened while one of the
/// same model is open stays inert, so nested primitives add nothing per
/// call. Open one per task around loops where one charge covers one
/// vertex (parallel_for_batched does exactly that).
class ChargeBatch {
 public:
  explicit ChargeBatch(CostModel& model) : model_(&model), outer_(open_) {
    if (outer_ == nullptr || outer_->model_ != model_) open_ = this;
  }
  ~ChargeBatch();
  SAGE_DISALLOW_COPY_AND_ASSIGN(ChargeBatch);

 private:
  friend class CostModel;

  /// The innermost active batch of the calling thread.
  static inline constinit thread_local ChargeBatch* open_ = nullptr;

  CostModel* const model_;
  ChargeBatch* const outer_;
  CostTotals sums_;
};

/// Cost model instance with per-thread sharded counters, one per
/// ExecutionContext.
///
/// Charging is routed once per configuration, not per call: every setter
/// (and the constructor) decides, for each charge kind, whether its words
/// always land in one CostTotals field. If they do, a charge is an inline
/// plain (non-atomic) add of that field - into the open ChargeBatch of this
/// model, else into the calling thread's cache-line-padded slot
/// (Scheduler::shard_id() gives every charging thread - pool worker or
/// foreign driver - its own slot); Totals() sums the slots. Only the
/// hint-dependent cases take the out-of-line slow path, which runs the
/// policy switch per call in call order: MemoryMode's cache simulation and
/// NVRAM reads under a non-replicated layout with more than one socket.
/// Configuration setters are meant for single-threaded setup before the
/// run starts charging; AlgorithmRegistry configures each run's model
/// before publishing the context to the workers.
class CostModel {
 public:
  CostModel() { Reroute(); }
  SAGE_DISALLOW_COPY_AND_ASSIGN(CostModel);

  /// Replaces the emulation config (not thread-safe vs. concurrent charging;
  /// callers set it between phases / before the run).
  void SetConfig(const EmulationConfig& config) {
    config_ = config;
    EnsureMemoryModeTags();
    Reroute();
  }
  const EmulationConfig& config() const { return config_; }

  /// Sets how allocations map to devices for subsequent charges.
  void SetAllocPolicy(AllocPolicy policy) {
    policy_ = policy;
    EnsureMemoryModeTags();
    Reroute();
  }
  AllocPolicy alloc_policy() const { return policy_; }

  /// Sets the NUMA placement of the graph region.
  void SetGraphLayout(GraphLayout layout) {
    graph_layout_ = layout;
    Reroute();
  }
  GraphLayout graph_layout() const { return graph_layout_; }

  /// Sets where the graph region physically lives. kMappedNvram pins graph
  /// reads to the NVRAM path regardless of the AllocPolicy (set per run by
  /// AlgorithmRegistry from Graph::nvram_resident()).
  void SetGraphResidence(GraphResidence residence) {
    graph_residence_ = residence;
    Reroute();
  }
  GraphResidence graph_residence() const { return graph_residence_; }

  /// Zeroes all counters.
  void ResetCounters();

  /// Charges `words` read from the graph region (NVRAM under kGraphNvram /
  /// kAllNvram; DRAM under kAllDram; cache-simulated under kMemoryMode).
  /// `addr_hint` feeds the MemoryMode cache simulator and the NUMA model.
  void ChargeGraphRead(uint64_t words, uint64_t addr_hint = 0) {
    Charge(ChargeKind::kGraphRead, words, addr_hint);
  }

  /// Charges `words` written to the graph region. Sage never calls this;
  /// only mutating baselines (PackedGraph) do.
  void ChargeGraphWrite(uint64_t words, uint64_t addr_hint = 0) {
    Charge(ChargeKind::kGraphWrite, words, addr_hint);
  }

  /// Charges `words` read from mutable working memory (DRAM under
  /// kAllDram/kGraphNvram; NVRAM under kAllNvram; cached under kMemoryMode).
  void ChargeWorkRead(uint64_t words, uint64_t addr_hint = 0) {
    Charge(ChargeKind::kWorkRead, words, addr_hint);
  }

  /// Charges `words` written to mutable working memory.
  void ChargeWorkWrite(uint64_t words, uint64_t addr_hint = 0) {
    Charge(ChargeKind::kWorkWrite, words, addr_hint);
  }

  /// Charges `words` of NVRAM read by the prefetch pipeline ahead of
  /// compute (graph/prefetch.h). Attributed distinctly - never folded into
  /// nvram_reads, PsamCost, or EmulatedNanos - so runs report how much of
  /// the graph the pipeline pulled in without perturbing the PSAM
  /// accounting the parity tests pin down. No NUMA model: the background
  /// advice thread is not on the emulated critical path.
  void ChargePrefetchRead(uint64_t words) {
    Add(&CostTotals::nvram_prefetch_reads, words);
  }

  /// Sums all shards.
  CostTotals Totals() const;

  /// Projected execution nanoseconds of the counted accesses under the
  /// configured device latencies, assuming accesses spread evenly over
  /// `threads` workers.
  double EmulatedNanos(const CostTotals& t, int threads) const;

 private:
  friend class ChargeBatch;

  struct alignas(kCacheLineBytes) Shard {
    CostTotals totals;
  };

  /// Bit 0: a write; bit 1: working memory rather than the graph region.
  enum class ChargeKind : uint8_t {
    kGraphRead = 0,
    kGraphWrite = 1,
    kWorkRead = 2,
    kWorkWrite = 3,
  };
  static constexpr int kChargeKinds = 4;
  static bool IsWrite(ChargeKind k) { return (static_cast<int>(k) & 1) != 0; }
  static bool IsGraph(ChargeKind k) { return static_cast<int>(k) < 2; }

  /// Which device a charge kind's words land on under the current policy
  /// and graph residence.
  enum class Sink : uint8_t { kDram, kNvram, kMemoryMode };

  /// The one CostTotals field a fast-route charge adds to; nullptr routes
  /// the kind to ChargeSlow.
  using Route = uint64_t CostTotals::*;

  void Charge(ChargeKind kind, uint64_t words, uint64_t addr_hint) {
    const Route route = routes_[static_cast<int>(kind)];
    if (SAGE_LIKELY(route != nullptr)) {
      Add(route, words);
    } else {
      ChargeSlow(kind, words, addr_hint);
    }
  }

  void Add(Route route, uint64_t words) {
    ChargeBatch* batch = ChargeBatch::open_;
    CostTotals& t = batch != nullptr && batch->model_ == this
                        ? batch->sums_
                        : LocalShard().totals;
    t.*route += words;
  }

  Shard& LocalShard() {
    const int id = Scheduler::shard_id();
    SAGE_DCHECK(id >= 0 && id < Scheduler::kMaxShards);
    return shards_[id];
  }

  Sink SinkOf(ChargeKind kind) const;
  /// Recomputes routes_ from the configuration; every setter calls it.
  void Reroute();
  /// The per-call path of the hint-dependent routes.
  void ChargeSlow(ChargeKind kind, uint64_t words, uint64_t addr_hint);
  void ChargeNvramRead(Shard& s, uint64_t words, uint64_t addr_hint);
  void ChargeMemoryMode(Shard& s, uint64_t words, uint64_t addr_hint,
                        bool is_write);

  /// (Re)allocates the per-model MemoryMode tag array when the policy can
  /// reach the cache simulator. Called from the setters, which run during
  /// single-threaded setup, so charging never observes a resize.
  void EnsureMemoryModeTags();

  EmulationConfig config_;
  Route routes_[kChargeKinds] = {};
  AllocPolicy policy_ = AllocPolicy::kGraphNvram;
  GraphLayout graph_layout_ = GraphLayout::kReplicated;
  GraphResidence graph_residence_ = GraphResidence::kPolicy;
  /// Direct-mapped tag array for the MemoryMode cache simulator, one per
  /// model so concurrent runs never thrash each other's simulated cache.
  /// Tags are relaxed atomics: workers of one run race benignly on the
  /// statistical hit rate without racing on memory.
  std::unique_ptr<std::atomic<uint64_t>[]> memory_mode_tags_;
  size_t memory_mode_tag_lines_ = 0;
  Shard shards_[Scheduler::kMaxShards];
};

inline ChargeBatch::~ChargeBatch() {
  if (open_ != this) return;  // inert: an outer batch of model_ sums
  open_ = outer_;
  model_->LocalShard().totals += sums_;
}

}  // namespace sage::nvram
