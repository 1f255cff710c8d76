// AlgorithmRegistry: the one typed entry point for running Sage's 18
// semi-asymmetric algorithms (Table 1 of the paper).
//
// Each algorithm registers a name, its input requirements (weighted input,
// source vertex, symmetric graph), and a runner closure. Callers invoke
// anything by name:
//
//   sage::RunContext ctx;                       // Sage-NVRAM defaults
//   auto run = sage::AlgorithmRegistry::Run("bfs", graph, ctx, params);
//   if (run.ok()) std::puts(run.ValueOrDie().ToJson().c_str());
//
// Run() validates the request against the declared requirements
// (weighting an unweighted input with AddRandomWeights' shared view when
// the algorithm needs weights), materializes the RunContext into a private
// nvram::ExecutionContext (counters, device state, deadline and prefetch
// pipeline owned by that run), executes the runner with the context bound
// to the run's workers, and returns a RunReport carrying the output plus
// the run's exact counters and peak intermediate DRAM. No process-wide
// state is mutated or restored, so any number of Run() calls may execute
// concurrently from different threads over one shared graph - each report
// accounts only its own run. The scheduler's width is the one process-wide
// setting: change it with Scheduler::Reset only while no run is in flight.
//
// The built-in algorithms self-register in api/builtin_algorithms.cc, in
// Table 1 row order; Names()/entries() preserve registration order so
// drivers and benchmarks iterate the paper's ordering.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/run_context.h"
#include "api/run_report.h"
#include "common/status.h"
#include "graph/graph.h"

namespace sage {

/// Bitmask constants naming which RunParams fields an algorithm consumes,
/// beyond what needs_source/needs_weights already imply. The result cache
/// folds only consumed fields into its canonical key, so submissions that
/// differ in an ignored knob (e.g. pagerank_epsilon on a BFS) collapse to
/// one entry.
inline constexpr uint32_t kParamSeed = 1u << 0;
inline constexpr uint32_t kParamLddBeta = 1u << 1;
inline constexpr uint32_t kParamPagerank = 1u << 2;
inline constexpr uint32_t kParamSetCoverEps = 1u << 3;
inline constexpr uint32_t kParamSpannerK = 1u << 4;
inline constexpr uint32_t kParamFilterBlock = 1u << 5;

/// Static metadata an algorithm declares when registering.
struct AlgorithmInfo {
  /// Registry key; unique, kebab-case (e.g. "bellman-ford").
  std::string name;
  /// The paper's Table 1 / Figure 1 row label (e.g. "Bellman-Ford").
  std::string table1_row;
  /// Consumes edge weights (runs on a weighted view of an unweighted
  /// input).
  bool needs_weights = false;
  /// Consumes RunParams::source.
  bool needs_source = false;
  /// Requires a symmetric (undirected) input graph.
  bool requires_symmetric = false;
  /// kParam* bitmask of RunParams fields this algorithm reads (source and
  /// weight_seed are implied by needs_source/needs_weights).
  uint32_t params_used = 0;
  /// One-line description for -list output and docs.
  std::string description;
};

class AlgorithmRegistry {
 public:
  /// Runner closure: `g` is the graph to run on — the input, or its
  /// weighted view when needs_weights and the input is unweighted. Runs
  /// inside the PSAM counter frame and timer, so the report measures
  /// exactly the kernel — nothing else.
  using Runner = std::function<AlgoOutput(
      const Graph& g, const RunContext& ctx, const RunParams& params)>;

  /// Digests the runner's output into the report's one-line summary. Runs
  /// after the counter frame closes: presentation cost is never charged to
  /// the algorithm.
  using Summarizer = std::function<std::string(const AlgoOutput& output)>;

  struct Entry {
    AlgorithmInfo info;
    Runner runner;
    Summarizer summarize;
  };

  /// The process-wide registry, with the built-in algorithms registered.
  static AlgorithmRegistry& Get();

  /// Registers an algorithm. Fails on duplicate or non-kebab-case names.
  Status Register(AlgorithmInfo info, Runner runner, Summarizer summarize);

  /// Metadata for `name`, or nullptr if unregistered.
  const AlgorithmInfo* Find(const std::string& name) const;

  /// All registered names, in registration (Table 1) order.
  std::vector<std::string> Names() const;

  /// All entries, in registration order.
  const std::vector<Entry>& entries() const { return entries_; }

  size_t size() const { return entries_.size(); }

  /// Runs `name` on `g` under `ctx`. When the algorithm needs weights and
  /// `g` has none, it reads the caller's `weighted` view of `g`
  /// (QueryService passes its snapshot's memoized view) or, when that is
  /// null, a view AddRandomWeights(g, RunParams::weight_seed) builds
  /// before the counter frame opens. Counters, residence and prefetch
  /// follow `g` either way.
  static Result<RunReport> Run(const std::string& name, const Graph& g,
                               const RunContext& ctx,
                               const RunParams& params = RunParams{},
                               const Graph* weighted = nullptr);

 private:
  AlgorithmRegistry() = default;

  const Entry* FindEntry(const std::string& name) const;

  std::vector<Entry> entries_;
  std::unordered_map<std::string, size_t> index_;
};

namespace internal {
/// Defined in builtin_algorithms.cc: registers the 18 Table-1 algorithms.
void RegisterBuiltinAlgorithms(AlgorithmRegistry& registry);
}  // namespace internal

}  // namespace sage
