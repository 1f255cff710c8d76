#include "nvram/cost_model.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace sage::nvram {

const char* AllocPolicyName(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::kAllDram:
      return "all-dram";
    case AllocPolicy::kGraphNvram:
      return "graph-nvram";
    case AllocPolicy::kAllNvram:
      return "all-nvram";
    case AllocPolicy::kMemoryMode:
      return "memory-mode";
  }
  return "unknown";
}

std::string CostTotals::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "dram_r=%llu dram_w=%llu nvram_r=%llu nvram_w=%llu "
                "prefetch_r=%llu remote=%llu mm_hit=%llu mm_miss=%llu",
                static_cast<unsigned long long>(dram_reads),
                static_cast<unsigned long long>(dram_writes),
                static_cast<unsigned long long>(nvram_reads),
                static_cast<unsigned long long>(nvram_writes),
                static_cast<unsigned long long>(nvram_prefetch_reads),
                static_cast<unsigned long long>(remote_nvram_accesses),
                static_cast<unsigned long long>(memory_mode_hits),
                static_cast<unsigned long long>(memory_mode_misses));
  return buf;
}

std::string CostTotals::ToJson() const {
  std::string j = "{";
  j += "\"dram_reads\": " + jsonw::U64(dram_reads);
  j += ", \"dram_writes\": " + jsonw::U64(dram_writes);
  j += ", \"nvram_reads\": " + jsonw::U64(nvram_reads);
  j += ", \"nvram_writes\": " + jsonw::U64(nvram_writes);
  j += ", \"nvram_prefetch_reads\": " + jsonw::U64(nvram_prefetch_reads);
  j += ", \"remote_nvram_accesses\": " + jsonw::U64(remote_nvram_accesses);
  j += ", \"memory_mode_hits\": " + jsonw::U64(memory_mode_hits);
  j += ", \"memory_mode_misses\": " + jsonw::U64(memory_mode_misses);
  j += "}";
  return j;
}

namespace {

// Socket of the calling thread: workers are split evenly across sockets,
// matching `numactl -i all` thread placement. Keyed by shard_id(), not the
// scheduler's worker id: every foreign thread (main, query sessions)
// reports worker id 0, which would pin all concurrent driver threads to
// socket 0; shard slots are unique per thread, so foreign threads spread
// across sockets like interleaved placement would. The main thread leases
// the first foreign slot and still maps to socket 0, so single-threaded
// baselines are unchanged.
int ThreadSocket(int num_sockets) {
  int nw = Scheduler::Get().num_workers();
  if (nw <= 1 || num_sockets <= 1) return 0;
  int sid = Scheduler::shard_id();
  // Pool workers use their slot directly; foreign slots fold back into
  // [0, nw) round-robin.
  int id = sid >= Scheduler::kMaxWorkers ? (sid - Scheduler::kMaxWorkers) % nw
                                         : sid % nw;
  int socket = id * num_sockets / nw;
  return socket < num_sockets ? socket : num_sockets - 1;
}

}  // namespace

void CostModel::EnsureMemoryModeTags() {
  if (policy_ != AllocPolicy::kMemoryMode) return;
  // Clear only on (re)allocation: the setters run repeatedly during run
  // setup (policy, then config), and re-clearing an O(lines) array per
  // call would tax every memory-mode query. ResetCounters() clears
  // explicitly.
  if (memory_mode_tags_ != nullptr &&
      memory_mode_tag_lines_ == config_.memory_mode_lines) {
    return;
  }
  memory_mode_tag_lines_ = config_.memory_mode_lines;
  memory_mode_tags_.reset(new std::atomic<uint64_t>[memory_mode_tag_lines_]);
  for (size_t i = 0; i < memory_mode_tag_lines_; ++i) {
    memory_mode_tags_[i].store(~0ULL, std::memory_order_relaxed);
  }
}

void CostModel::ResetCounters() {
  for (auto& shard : shards_) shard.totals = CostTotals{};
  EnsureMemoryModeTags();
  for (size_t i = 0; i < memory_mode_tag_lines_; ++i) {
    memory_mode_tags_[i].store(~0ULL, std::memory_order_relaxed);
  }
}

void CostModel::ChargeNvramRead(Shard& s, uint64_t words,
                                uint64_t addr_hint) {
  s.totals.nvram_reads += words;
  if (config_.num_sockets > 1) {
    switch (graph_layout_) {
      case GraphLayout::kReplicated:
        break;  // always local
      case GraphLayout::kSingleSocket:
        if (ThreadSocket(config_.num_sockets) != 0) {
          s.totals.remote_nvram_accesses += words;
        }
        break;
      case GraphLayout::kInterleaved: {
        uint64_t line = addr_hint / config_.memory_mode_line_words;
        int data_socket =
            static_cast<int>(line % static_cast<uint64_t>(config_.num_sockets));
        if (data_socket != ThreadSocket(config_.num_sockets)) {
          s.totals.remote_nvram_accesses += words;
        }
        break;
      }
    }
  }
}

void CostModel::ChargeMemoryMode(Shard& s, uint64_t words, uint64_t addr_hint,
                                 bool is_write) {
  // Walk the cache lines this access covers through the direct-mapped tag
  // array; misses pay NVRAM cost, hits pay DRAM cost. Tag updates are
  // relaxed: concurrent workers of a run may perturb each other's hit rate
  // marginally (the simulator is statistical), but never race on memory.
  SAGE_DCHECK(memory_mode_tags_ != nullptr);
  const size_t tag_lines = memory_mode_tag_lines_;
  const uint64_t lw = config_.memory_mode_line_words;
  uint64_t first_line = addr_hint / lw;
  uint64_t num_lines = (words + lw - 1) / lw;
  if (num_lines == 0) num_lines = 1;
  uint64_t hits = 0, misses = 0;
  for (uint64_t l = 0; l < num_lines; ++l) {
    uint64_t line = first_line + l;
    size_t slot = static_cast<size_t>(line % tag_lines);
    if (memory_mode_tags_[slot].load(std::memory_order_relaxed) == line) {
      ++hits;
    } else {
      ++misses;
      memory_mode_tags_[slot].store(line, std::memory_order_relaxed);
    }
  }
  // Attribute word traffic proportionally to hit/miss lines.
  uint64_t miss_words = num_lines == 0 ? 0 : words * misses / num_lines;
  uint64_t hit_words = words - miss_words;
  s.totals.memory_mode_hits += hits;
  s.totals.memory_mode_misses += misses;
  if (is_write) {
    s.totals.dram_writes += hit_words;
    s.totals.nvram_writes += miss_words;
  } else {
    s.totals.dram_reads += hit_words;
    s.totals.nvram_reads += miss_words;
  }
}

CostModel::Sink CostModel::SinkOf(ChargeKind kind) const {
  switch (policy_) {
    case AllocPolicy::kAllDram:
      // A mapped graph cannot be "in DRAM" by policy: the bytes live in the
      // NVRAM file image, so its reads pay NVRAM cost even here.
      return kind == ChargeKind::kGraphRead &&
                     graph_residence_ == GraphResidence::kMappedNvram
                 ? Sink::kNvram
                 : Sink::kDram;
    case AllocPolicy::kGraphNvram:
      return IsGraph(kind) ? Sink::kNvram : Sink::kDram;
    case AllocPolicy::kAllNvram:
      return Sink::kNvram;
    case AllocPolicy::kMemoryMode:
      return Sink::kMemoryMode;
  }
  return Sink::kMemoryMode;
}

void CostModel::Reroute() {
  // Per call: the cache simulation, and NVRAM reads unless every read is
  // socket-local.
  const bool numa =
      config_.num_sockets > 1 && graph_layout_ != GraphLayout::kReplicated;
  for (int k = 0; k < kChargeKinds; ++k) {
    const auto kind = static_cast<ChargeKind>(k);
    const bool write = IsWrite(kind);
    const Sink sink = SinkOf(kind);
    const bool per_call =
        sink == Sink::kMemoryMode ||
        (sink == Sink::kNvram && numa && !write);
    if (per_call) {
      routes_[k] = nullptr;
    } else if (sink == Sink::kDram) {
      routes_[k] = write ? &CostTotals::dram_writes : &CostTotals::dram_reads;
    } else {
      routes_[k] = write ? &CostTotals::nvram_writes : &CostTotals::nvram_reads;
    }
  }
}

void CostModel::ChargeSlow(ChargeKind kind, uint64_t words,
                           uint64_t addr_hint) {
  Shard& s = LocalShard();
  const bool write = IsWrite(kind);
  const Sink sink = SinkOf(kind);
  if (sink == Sink::kMemoryMode) {
    ChargeMemoryMode(s, words, addr_hint, write);
    return;
  }
  // DRAM charges and NVRAM writes always route fast.
  SAGE_DCHECK(sink == Sink::kNvram && !write);
  ChargeNvramRead(s, words, addr_hint);
}

CostTotals CostModel::Totals() const {
  CostTotals t;
  for (const auto& shard : shards_) t += shard.totals;
  return t;
}

double CostModel::EmulatedNanos(const CostTotals& t, int threads) const {
  if (threads < 1) threads = 1;
  double local_reads =
      static_cast<double>(t.nvram_reads - std::min(t.nvram_reads,
                                                   t.remote_nvram_accesses));
  double remote = static_cast<double>(t.remote_nvram_accesses);
  double ns = static_cast<double>(t.dram_reads) * config_.dram_read_ns +
              static_cast<double>(t.dram_writes) * config_.dram_write_ns +
              local_reads * config_.nvram_read_ns +
              remote * config_.nvram_read_ns * config_.remote_nvram_multiplier +
              static_cast<double>(t.nvram_writes) * config_.nvram_write_ns();
  return ns / threads;
}

}  // namespace sage::nvram
