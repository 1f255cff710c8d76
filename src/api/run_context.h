// RunContext and RunParams: the per-run configuration surface of the
// engine API.
//
// A RunContext describes *how* an algorithm executes: the emulated device
// policy (which data lives on NVRAM vs. DRAM), the PSAM write asymmetry
// omega, the NUMA placement of the graph, the thread budget, and the
// EdgeMap traversal options. It is pure configuration: for each run,
// AlgorithmRegistry::Run materializes it into a private
// nvram::ExecutionContext (counters + device state owned by that run
// alone) and binds it to the executing thread and its forked work, so any
// number of runs with different contexts can execute concurrently - no
// process-wide device state is mutated or restored per run. The ambient
// configuration (nvram::ExecutionContext::Default()) seeds each run's
// device state; RunContext's fields then override policy, layout, and
// omega on top of it.
//
// One device property is deliberately *not* in the context: where the graph
// physically lives. An mmap-ed .bsadj graph (binary_format.h) is
// NVRAM-resident no matter what the policy says, so the registry derives
// nvram::GraphResidence from Graph::nvram_resident() per run and the report
// records it as RunReport::graph_mapped.
//
// RunParams carries the *algorithm-level* knobs (source vertex, seeds,
// tolerances). Both structs are plain aggregates with the paper's defaults;
// a default-constructed {ctx, params} pair reproduces the Sage-NVRAM
// configuration used throughout the paper.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/edge_map.h"
#include "graph/types.h"
#include "nvram/execution_context.h"

namespace sage {

/// Device, thread, and traversal configuration for one engine run.
struct RunContext {
  /// How program data maps onto the emulated devices (Figure 7 rows).
  nvram::AllocPolicy policy = nvram::AllocPolicy::kGraphNvram;
  /// NUMA placement of the (read-only) graph region (Section 5.2).
  nvram::GraphLayout graph_layout = nvram::GraphLayout::kReplicated;
  /// PSAM write asymmetry applied for the run (EmulationConfig::omega).
  double omega = nvram::EmulationConfig{}.omega;
  /// Worker threads for the run; 0 keeps the current scheduler. A non-zero
  /// width rebuilds the process-wide pool, so the registry runs such
  /// requests exclusively (they wait for in-flight runs to drain and block
  /// new ones); the scheduler is NOT restored after the run (rebuilding
  /// thread pools per run would dominate small runs). Concurrent
  /// submissions should leave this at 0.
  int num_threads = 0;
  /// EdgeMap traversal options threaded into every frontier-based kernel.
  EdgeMapOptions edge_map;
  /// Page-frontier prefetch pipeline (graph/prefetch.h). Off by default;
  /// only takes effect when the run's graph is an mmap-ed .bsadj image -
  /// the registry builds a per-run Prefetcher and threads it through
  /// edge_map.prefetcher for the duration of the run. edge_map.prefetcher
  /// itself is reserved for the registry: submitters configure prefetch
  /// here, not by installing their own pipeline.
  PrefetchOptions prefetch;
  /// Deadline for the run in milliseconds from submission; 0 = none. The
  /// QueryService stamps the absolute deadline at Submit time so queue wait
  /// counts against it; direct AlgorithmRegistry::Run callers get the clock
  /// started at run entry. An expired deadline surfaces as a
  /// DeadlineExceeded Status, checked at edgeMap round boundaries.
  double deadline_ms = 0;
  /// Optional cooperative cancel token; the submitter keeps a reference
  /// and calls RequestCancel() to stop the run (Cancelled Status).
  std::shared_ptr<CancelToken> cancel;
  /// Absolute deadline, reserved for the QueryService (like
  /// edge_map.prefetcher): stamped at Submit so queue time counts against
  /// deadline_ms. time_point::max() = derive from deadline_ms at run entry.
  std::chrono::steady_clock::time_point absolute_deadline =
      std::chrono::steady_clock::time_point::max();

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
