// RunContext and RunParams: the per-run configuration surface of the
// engine API.
//
// A RunContext describes *how* an algorithm executes: the emulated device
// policy (which data lives on NVRAM vs. DRAM), the PSAM write asymmetry
// omega, the NUMA placement of the graph, the EdgeMap traversal options,
// whether to prefetch, and the run's deadline and cancel token. It is pure
// configuration: for each run, AlgorithmRegistry::Run materializes it into
// a private nvram::ExecutionContext, which holds everything the run owns
// while it executes (counters, device state, the armed deadline and the
// prefetch pipeline), and binds it to the executing thread and its forked
// work, so any number of runs with different contexts can execute
// concurrently - no process-wide device state is mutated or restored per
// run. The ambient configuration (nvram::ExecutionContext::Default()) seeds
// each run's device state; RunContext's fields then override policy,
// layout, and omega on top of it.
//
// Two properties are deliberately *not* in the context. The scheduler's
// width is process setup: set it with Scheduler::Reset while no run is in
// flight. And where the graph physically lives: an mmap-ed .bsadj graph
// (binary_format.h) is NVRAM-resident no matter what the policy says, so
// the registry derives nvram::GraphResidence from Graph::nvram_resident()
// per run and the report records it as RunReport::graph_mapped.
//
// RunParams carries the *algorithm-level* knobs (source vertex, seeds,
// tolerances). Both structs are plain aggregates with the paper's defaults;
// a default-constructed {ctx, params} pair reproduces the Sage-NVRAM
// configuration used throughout the paper.
#pragma once

#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/edge_map.h"
#include "graph/types.h"
#include "nvram/execution_context.h"

namespace sage {

/// Device, traversal, and interruption configuration for one engine run.
struct RunContext {
  /// How program data maps onto the emulated devices (Figure 7 rows).
  nvram::AllocPolicy policy = nvram::AllocPolicy::kGraphNvram;
  /// NUMA placement of the (read-only) graph region (Section 5.2).
  nvram::GraphLayout graph_layout = nvram::GraphLayout::kReplicated;
  /// PSAM write asymmetry applied for the run (EmulationConfig::omega).
  double omega = nvram::EmulationConfig{}.omega;
  /// EdgeMap traversal options threaded into every frontier-based kernel.
  EdgeMapOptions edge_map;
  /// Page-frontier prefetch pipeline (graph/prefetch.h). Off by default;
  /// only takes effect when the run's graph is an mmap-ed .bsadj image -
  /// the registry then builds a per-run Prefetcher and binds it to the
  /// run's ExecutionContext, where every edgeMap round finds it.
  bool prefetch = false;
  /// Time budget for the run in milliseconds; 0 = none. The registry
  /// starts the clock when it is entered; the QueryService first subtracts
  /// the time a request waited in its queue, so queue wait and run share
  /// one budget. An expired deadline surfaces as a DeadlineExceeded
  /// Status, checked at edgeMap round boundaries.
  double deadline_ms = 0;
  /// Optional cooperative cancel token; the submitter keeps a reference
  /// and calls RequestCancel() to stop the run (Cancelled Status).
  std::shared_ptr<CancelToken> cancel;

  /// Snapshots the calling thread's ambient device state (the current
  /// ExecutionContext's - normally Default()'s) into a context, for
  /// callers that want "whatever is configured right now" semantics.
  static RunContext Current() {
    const auto& cm = nvram::Cost();
    RunContext ctx;
    ctx.policy = cm.alloc_policy();
    ctx.graph_layout = cm.graph_layout();
    ctx.omega = cm.config().omega;
    return ctx;
  }
};

/// Algorithm-level parameters. Fields are ignored by algorithms that do
/// not consume them (see AlgorithmInfo::needs_source / needs_weights).
struct RunParams {
  /// Source vertex for the five source-rooted problems.
  vertex_id source = 0;
  /// Seed for the randomized algorithms (LDD, MIS, matching, spanner, ...).
  uint64_t seed = 1;
  /// LDD/connectivity cluster growth parameter (0.2 per Section 5.3).
  double ldd_beta = 0.2;
  /// PageRank L1 convergence tolerance.
  double pagerank_epsilon = 1e-6;
  /// PageRank iteration cap.
  uint64_t pagerank_max_iters = 100;
  /// Set-cover bucket granularity (1 + eps).
  double set_cover_eps = 0.5;
  /// Spanner stretch parameter; 0 = ceil(log2 n) as in the paper.
  uint32_t spanner_k = 0;
  /// GraphFilter block size F_B for triangle counting / matching /
  /// set cover; 0 = default.
  uint32_t filter_block_size = 0;
  /// Seed of the weights a weighted algorithm reads on an unweighted
  /// graph (AddRandomWeights' view, uniform integers in
  /// [1, max(2, ceil(log2 n))); a snapshot keeps the view of the last
  /// seed asked for).
  uint64_t weight_seed = 99;
};

/// The valid `-policy` spellings, pipe-separated (for usage strings).
inline const char* AllocPolicyChoices() {
  return "graph-nvram|all-dram|all-nvram|memory-mode";
}

/// Parses an AllocPolicy name as printed by nvram::AllocPolicyName.
/// Unknown names are an InvalidArgument listing the valid policies.
inline Result<nvram::AllocPolicy> ParseAllocPolicy(const std::string& name) {
  if (name == "graph-nvram") return nvram::AllocPolicy::kGraphNvram;
  if (name == "all-dram") return nvram::AllocPolicy::kAllDram;
  if (name == "all-nvram") return nvram::AllocPolicy::kAllNvram;
  if (name == "memory-mode") return nvram::AllocPolicy::kMemoryMode;
  return Status::InvalidArgument("unknown allocation policy '" + name +
                                 "' (valid: " +
                                 std::string(AllocPolicyChoices()) + ")");
}

}  // namespace sage
