// RunReport: the structured result of one engine run.
//
// Every AlgorithmRegistry::Run returns a RunReport bundling the algorithm's
// output (a variant over the toolkit's result types), a one-line summary,
// wall/device time, and the full PSAM accounting for the run: the
// DRAM/NVRAM read/write counter deltas (Section 3) and the peak
// intermediate DRAM allocation (the Table 5 metric). ToJson() renders the
// measurement portion machine-readably for drivers and CI.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "algorithms/biconnectivity.h"
#include "algorithms/densest_subgraph.h"
#include "algorithms/kcore.h"
#include "algorithms/ldd.h"
#include "algorithms/pagerank.h"
#include "algorithms/triangle_count.h"
#include "graph/types.h"
#include "nvram/cost_model.h"

namespace sage {

/// Union of the 18 algorithms' native result types. vertex_id and uint32_t
/// are the same type, so one vector<vertex_id> alternative covers BFS
/// parents, component labels, set-cover ids, and colorings.
using AlgoOutput = std::variant<
    std::monostate,                                // empty (default report)
    std::vector<vertex_id>,                        // parents/labels/ids/colors
    std::vector<uint64_t>,                         // distances, capacities
    std::vector<double>,                           // betweenness scores
    std::vector<uint8_t>,                          // MIS membership flags
    std::vector<std::pair<vertex_id, vertex_id>>,  // edge sets
    LddResult, BiconnectivityResult, KCoreResult, DensestSubgraphResult,
    TriangleCountResult, PageRankResult>;

/// Structured result of one AlgorithmRegistry::Run.
struct RunReport {
  /// Registry name of the algorithm that ran (e.g. "bfs").
  std::string algorithm;
  /// One-line human-readable digest of the output (e.g. "reached=972").
  std::string summary;
  /// The algorithm's native output.
  AlgoOutput output;

  /// Host wall-clock seconds of the run.
  double wall_seconds = 0.0;
  /// Projected seconds of the run's memory traffic under the emulated
  /// device latencies (CostModel::EmulatedNanos over `threads` workers).
  double device_seconds = 0.0;
  /// Worker threads the run executed on.
  int threads = 1;
  /// Device policy the run executed under.
  nvram::AllocPolicy policy = nvram::AllocPolicy::kGraphNvram;
  /// True when the input graph was an mmap-ed NVRAM-resident .bsadj image
  /// (graph reads then charge as NVRAM under every policy).
  bool graph_mapped = false;
  /// Epoch of the graph snapshot the query executed on: 0 for the engine's
  /// original image, bumped by every Engine::ApplyUpdates / Compact. Runs
  /// submitted outside an engine (no snapshot) report 0.
  uint64_t graph_epoch = 0;
  /// Directed edge slots inserted or deleted in the snapshot's DRAM delta
  /// overlay relative to the NVRAM base image (0 once compacted).
  uint64_t delta_edges = 0;
  /// PSAM write asymmetry the run executed under.
  double omega = 4.0;
  /// PSAM counter deltas charged by the run (word granularity).
  nvram::CostTotals cost;
  /// Multi-shard graphs only: the run's NVRAM graph traffic binned by the
  /// shard each access fell in (one entry per shard of the storage; empty
  /// for monolithic graphs). The entries sum to the shard-attributed
  /// subset of cost.nvram_reads/nvram_writes - attribution never perturbs
  /// the totals, which stay bit-identical to a monolithic run.
  std::vector<nvram::ShardIoTotals> per_shard;
  /// Peak DRAM allocated by the run's intermediate structures, in bytes
  /// (Table 5's metric). Measured by the run's own ExecutionContext
  /// tracker, which starts at zero, so concurrent runs report their own
  /// peaks.
  uint64_t peak_intermediate_bytes = 0;
  /// True when the page-frontier prefetch pipeline (graph/prefetch.h) was
  /// active for the run (RunContext::prefetch on a mapped graph).
  bool prefetch_enabled = false;
  /// EdgeMap rounds whose page frontier was handed to the advice thread.
  uint64_t prefetch_waves = 0;
  /// Pages the pipeline advised that were non-resident (reads it initiated
  /// ahead of compute; also charged as cost.nvram_prefetch_reads).
  uint64_t pages_prefetched = 0;
  /// Page-frontier pages left to the synchronous fault path (dropped by
  /// the wave budget or queue overflow).
  uint64_t pages_faulted = 0;
  /// True when this report was served from the QueryService result cache
  /// (summary/counters are a copy of the original run's; wall_seconds is
  /// the original run's kernel time, queue_seconds the cached lookup's).
  bool cache_hit = false;
  /// Seconds between Submit and the start of execution (queue wait plus
  /// admission). 0 for direct AlgorithmRegistry::Run calls.
  double queue_seconds = 0.0;

  /// PSAM work of the run: dram + nvram_reads + omega * nvram_writes.
  double PsamCost() const { return cost.PsamCost(omega); }

  /// Machine-readable rendering of the measurement fields (not the raw
  /// output vectors, which can be gigabytes).
  std::string ToJson() const;

  /// Human-readable multi-line rendering, as printed by sage_cli.
  std::string ToString() const;
};

}  // namespace sage
