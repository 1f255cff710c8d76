#include "api/registry.h"

#include <cctype>
#include <chrono>
#include <utility>

#include "common/timer.h"
#include "graph/builder.h"
#include "graph/prefetch.h"
#include "nvram/execution_context.h"
#include "parallel/parallel.h"

namespace sage {

namespace {

bool IsKebabCase(const std::string& name) {
  if (name.empty() || name.front() == '-' || name.back() == '-') return false;
  bool prev_dash = false;
  for (char c : name) {
    if (c == '-') {
      if (prev_dash) return false;
      prev_dash = true;
      continue;
    }
    prev_dash = false;
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::Get() {
  static AlgorithmRegistry& registry = *[] {
    auto* r = new AlgorithmRegistry();
    internal::RegisterBuiltinAlgorithms(*r);
    return r;
  }();
  return registry;
}

Status AlgorithmRegistry::Register(AlgorithmInfo info, Runner runner,
                                   Summarizer summarize) {
  if (!IsKebabCase(info.name)) {
    return Status::InvalidArgument("algorithm name '" + info.name +
                                   "' is not kebab-case");
  }
  if (index_.count(info.name) > 0) {
    return Status::InvalidArgument("algorithm '" + info.name +
                                   "' is already registered");
  }
  if (runner == nullptr || summarize == nullptr) {
    return Status::InvalidArgument(
        "algorithm '" + info.name +
        "' registered without a runner or summarizer");
  }
  index_[info.name] = entries_.size();
  entries_.push_back(
      Entry{std::move(info), std::move(runner), std::move(summarize)});
  return Status::OK();
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::FindEntry(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

const AlgorithmInfo* AlgorithmRegistry::Find(const std::string& name) const {
  const Entry* e = FindEntry(name);
  return e == nullptr ? nullptr : &e->info;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.info.name);
  return names;
}

Result<RunReport> AlgorithmRegistry::Run(const std::string& name,
                                         const Graph& g,
                                         const RunContext& ctx,
                                         const RunParams& params,
                                         const Graph* weighted) {
  // The deadline budget runs from entry (a QueryService has already spent
  // the request's queue wait from it).
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (ctx.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(ctx.deadline_ms));
  }
  AlgorithmRegistry& reg = Get();
  const Entry* entry = reg.FindEntry(name);
  if (entry == nullptr) {
    std::string names;
    for (const Entry& e : reg.entries_) {
      if (!names.empty()) names += ' ';
      names += e.info.name;
    }
    return Status::NotFound("unknown algorithm '" + name +
                            "' (registered: " + names + ")");
  }
  const AlgorithmInfo& info = entry->info;
  if (info.needs_source && params.source >= g.num_vertices()) {
    return Status::InvalidArgument(
        name + ": source " + std::to_string(params.source) +
        " out of range for " + std::to_string(g.num_vertices()) +
        " vertices");
  }
  if (info.requires_symmetric && !g.symmetric()) {
    return Status::InvalidArgument(name + " requires a symmetric graph");
  }
  if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
    return Status::Cancelled(name + ": cancelled before start");
  }

  // The weighted view is built before the counter frame: preparing the
  // input is not part of the algorithm's PSAM cost.
  Graph synthesized;
  const Graph* run_graph = &g;
  if (info.needs_weights && !g.weighted()) {
    if (weighted == nullptr || !weighted->weighted()) {
      synthesized = AddRandomWeights(g, params.weight_seed);
      weighted = &synthesized;
    }
    run_graph = weighted;
  }

  // The run's private execution state: fresh counters and a device
  // configuration seeded from the ambient context, overridden by the
  // RunContext. Nothing process-wide is touched, so concurrent runs
  // account independently and there is nothing to restore.
  nvram::ExecutionContext exec;
  exec.InheritDeviceState(nvram::ExecutionContext::Current());
  auto& cm = exec.cost_model();
  nvram::EmulationConfig config = cm.config();
  config.omega = ctx.omega;
  cm.SetConfig(config);
  cm.SetAllocPolicy(ctx.policy);
  cm.SetGraphLayout(ctx.graph_layout);
  // The input graph, not the context, knows where it physically lives: an
  // mmap-ed .bsadj image is NVRAM-resident under every policy. (A weighted
  // view's weights live in DRAM, but the graph region charge follows the
  // input they extend.)
  cm.SetGraphResidence(g.nvram_resident()
                           ? nvram::GraphResidence::kMappedNvram
                           : nvram::GraphResidence::kPolicy);
  // Multi-shard storage: register the shard boundaries so the run's NVRAM
  // graph traffic is also binned per shard. Attribution is a side array;
  // the totals the parity tests pin are untouched.
  if (auto storage = g.storage();
      storage != nullptr && storage->shard_count() > 0) {
    cm.SetGraphShards(storage->shard_edge_starts());
  }

  // Cooperative interruption: EdgeMap polls CheckInterrupt() once per
  // round on the root thread. Without a deadline or a token the context
  // stays unarmed and never throws.
  exec.ArmInterrupt(ctx.cancel, deadline);

  // Per-run prefetch pipeline: built only when the context asks for it and
  // the input is a mapped image (in-memory graphs have no pages to advise),
  // and bound to the run's context, where every edgeMap round finds it.
  // Declared after `exec` so its advice thread is joined before the cost
  // model it charges is destroyed.
  std::unique_ptr<Prefetcher> prefetcher;
  if (ctx.prefetch && g.nvram_resident()) {
    prefetcher = std::make_unique<Prefetcher>(g, PrefetchOptions{}, &cm);
    if (prefetcher->active()) exec.BindPrefetcher(prefetcher.get());
  }

  RunReport report;
  {
    // Bind the context to this thread; the scheduler's task tags carry it
    // to every worker that executes this run's forked work.
    nvram::ScopedExecutionContext scope(exec);
    Timer timer;
    try {
      report.output = entry->runner(*run_graph, ctx, params);
    } catch (const QueryInterrupt& interrupt) {
      // Thrown from an edgeMap checkpoint on this (root) thread of an armed
      // context; the prefetcher and scoped bindings unwind normally.
      // Partial output is dropped — the run either completes or reports
      // why it stopped.
      if (interrupt.code == StatusCode::kCancelled) {
        return Status::Cancelled(name + ": cancelled mid-run");
      }
      return Status::DeadlineExceeded(name + ": deadline exceeded after " +
                                      std::to_string(timer.Seconds()) + "s");
    }
    report.wall_seconds = timer.Seconds();
  }
  if (prefetcher != nullptr) {
    // Settle the advice thread's in-flight charges before snapshotting the
    // counters, and surface the pipeline's page accounting in the report.
    prefetcher->Drain();
    const PrefetchStats pstats = prefetcher->stats();
    report.prefetch_enabled = prefetcher->active();
    report.prefetch_waves = pstats.waves;
    report.pages_prefetched = pstats.pages_prefetched;
    report.pages_faulted = pstats.pages_faulted;
  }
  report.cost = cm.Totals();
  report.per_shard = cm.ShardTotals();
  report.peak_intermediate_bytes = exec.memory_tracker().PeakBytes();
  report.algorithm = info.name;
  report.threads = num_workers();
  report.policy = ctx.policy;
  report.omega = ctx.omega;
  report.graph_mapped = g.nvram_resident();
  report.device_seconds =
      cm.EmulatedNanos(report.cost, report.threads) / 1e9;

  // Summaries run outside the frame: digesting the output (sorting labels,
  // counting reached vertices) is presentation, not algorithm cost.
  report.summary = entry->summarize(report.output);
  return report;
}

}  // namespace sage
