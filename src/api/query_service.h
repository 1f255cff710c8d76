// QueryService: the serving front end over one shared graph.
//
// The semi-asymmetric model keeps the graph immutable (on NVRAM), so any
// number of queries can traverse one graph image at once; per-run
// ExecutionContexts (nvram/execution_context.h) make their PSAM accounting
// exact. QueryService is the front door for that mode: a fixed pool of
// session threads drains a bounded queue of submitted queries, each
// executed through AlgorithmRegistry::Run under its own context on a
// pinned GraphSnapshot (and its GraphSnapshot::WeightedView for weighted
// algorithms on unweighted graphs), and fulfills a std::future per query.
//
//   QueryService service(graph, {.sessions = 4});
//   auto bfs = service.Submit("bfs", ctx, {.source = 0});
//   auto pr  = service.Submit("pagerank", ctx);
//   if (bfs.get().ok()) ...                       // runs overlap freely
//
// On top of the queue the service layers the production serving features:
//
//   - Result cache (Options::cache_bytes > 0): epoch-keyed, LRU over a
//     byte budget (api/result_cache.h). A submission whose canonical key
//     hits completes its future immediately with a bit-identical copy of
//     the original run's report (cache_hit = true), bypassing the queue.
//     Entries are keyed by snapshot epoch, so hot-swapped graphs never
//     serve stale results; the Engine drops a retired epoch's entries via
//     an EpochManager retire listener.
//   - Tenants (RegisterTenant): named submitters with an admission quota
//     (max queued requests - above it Submit rejects with
//     ResourceExhausted instead of blocking), a concurrency cap
//     (max_in_flight - sessions skip the tenant's requests while it is at
//     the cap), and a priority (higher-priority requests are dequeued
//     first; FIFO within a priority). Unregistered tenant names get the
//     default config: unlimited, priority 0, blocking backpressure -
//     exactly the pre-tenant semantics.
//   - Deadlines/cancellation: RunContext::deadline_ms is one budget for
//     queue wait and run. At dequeue the session subtracts the queue wait
//     from it and rejects a request whose budget is used up without
//     running it; the registry starts the clock on what remains and checks
//     it at every edgeMap round boundary. Expired runs surface Status
//     DeadlineExceeded, cancelled ones Cancelled.
//   - Latency histograms: lock-free log-bucketed end-to-end latency
//     (submit to completion), global and per tenant, surfaced as
//     p50/p95/p99 in StatsJson(). Only queries that produced a report
//     (fresh runs and cache hits) are recorded; errors, rejections, and
//     deadline misses are counted separately.
//
// Thread-safety contract:
//   - Submit() may be called from any number of threads. Default-config
//     tenants block while the queue is full (backpressure, never unbounded
//     growth); quota tenants are rejected instead.
//   - The service pins its own epoch-0 snapshot of the graph it is built
//     over (Graph copies share their storage), so the caller's Graph
//     object need not outlive it.
//   - The scheduler's width is process setup: call Scheduler::Reset only
//     while no query is in flight.
//   - Shutdown() (and the destructor) stops accepting work, drains queued
//     queries, and joins the sessions; futures for drained queries still
//     complete.
//
// Engine wraps one QueryService per engine (Engine::Submit); construct one
// directly to serve a graph without the facade.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/latency_histogram.h"
#include "api/registry.h"
#include "api/result_cache.h"
#include "api/run_context.h"
#include "api/run_report.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/epoch.h"
#include "graph/graph.h"

namespace sage {

/// Admission/scheduling configuration for one named tenant.
struct TenantConfig {
  /// Concurrency cap: the tenant's requests wait in the queue while this
  /// many are executing. 0 = unlimited.
  size_t max_in_flight = 0;
  /// Queue share: Submit rejects (ResourceExhausted) when the tenant
  /// already has this many queued requests, or when the global queue is
  /// full. 0 = no quota - the tenant blocks on a full queue instead
  /// (the default tenant's semantics).
  size_t max_queued = 0;
  /// Dequeue priority; higher runs first, FIFO within a priority.
  int priority = 0;
};

/// Monotonic per-tenant (and global) serving counters.
struct ServingCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;         // admission quota rejections
  uint64_t completed = 0;        // fresh runs that produced a report
  uint64_t cache_hits = 0;       // served from the result cache
  uint64_t errors = 0;           // non-OK other than deadline/cancel
  uint64_t deadline_misses = 0;  // DeadlineExceeded results
  uint64_t cancelled = 0;        // Cancelled results

  std::string ToJson() const;
};

class QueryService {
 public:
  struct Options {
    /// Session threads draining the queue = maximum concurrently executing
    /// queries. Each session runs one query at a time; the queries' inner
    /// parallelism shares the process-wide scheduler.
    int sessions = 4;
    /// Maximum queued (not yet executing) queries; Submit blocks when full
    /// (quota tenants are rejected instead).
    size_t queue_capacity = 128;
    /// Result-cache byte budget; 0 disables the cache.
    uint64_t cache_bytes = 0;
  };

  explicit QueryService(const Graph& graph) : QueryService(graph, Options()) {}
  QueryService(const Graph& graph, Options options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query under `tenant`'s admission quota, concurrency cap,
  /// and priority, and returns a future that completes when a session has
  /// executed it (or immediately, on a cache hit). The query executes on
  /// `snapshot` (nullptr = the service's own epoch-0 snapshot), and its
  /// report is stamped with the snapshot's epoch and delta count. The
  /// snapshot stays pinned (its epoch cannot retire) until the query
  /// completes - Engine::Submit passes the current epoch's, so in-flight
  /// runs keep a consistent view across concurrent ApplyUpdates / Compact
  /// calls. Default-config tenants block while the queue is at capacity.
  /// After Shutdown() the future completes immediately with an Internal
  /// error.
  std::future<Result<RunReport>> Submit(
      std::string algorithm, RunContext ctx, RunParams params = RunParams{},
      std::shared_ptr<const GraphSnapshot> snapshot = nullptr,
      const std::string& tenant = "default") SAGE_EXCLUDES(mu_);

  /// Registers (or reconfigures) a named tenant. Takes effect for
  /// subsequent Submits; in-flight and queued requests keep the config
  /// they were admitted under.
  void RegisterTenant(const std::string& name, TenantConfig config)
      SAGE_EXCLUDES(mu_);

  /// Stops accepting new queries, drains the queue, joins the sessions.
  /// Idempotent.
  void Shutdown() SAGE_EXCLUDES(shutdown_mu_, mu_);

  const Graph& graph() const { return snapshot_->graph; }
  int sessions() const { return static_cast<int>(sessions_.size()); }
  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Queries queued but not yet picked up by a session.
  size_t pending() const SAGE_EXCLUDES(mu_);

  /// The result cache, or nullptr when Options::cache_bytes was 0. Shared
  /// so epoch-retire listeners can outlive the service (Engine captures it
  /// in an EpochManager listener).
  const std::shared_ptr<ResultCache>& cache() const { return cache_; }

  /// Global serving counters (all tenants).
  ServingCounters counters() const SAGE_EXCLUDES(mu_);

  /// Global end-to-end latency percentiles.
  LatencySnapshot latency() const { return global_histogram_.Snapshot(); }

  /// Per-tenant latency percentiles; zero snapshot for unknown names.
  LatencySnapshot tenant_latency(const std::string& name) const
      SAGE_EXCLUDES(mu_);

  /// One JSON document with queue state, global and per-tenant counters
  /// and latency percentiles, and cache statistics (see README "Serving").
  std::string StatsJson() const SAGE_EXCLUDES(mu_);

 private:
  /// Per-tenant serving state. Entries are never erased, so sessions may
  /// hold Tenant pointers across queue operations; `histogram` is
  /// internally synchronized, everything else is guarded by the service's
  /// mu_ (not annotated: clang's analysis cannot tie a nested struct's
  /// fields to the owning service's mutex).
  struct Tenant {
    std::string name;
    TenantConfig config;
    size_t in_flight = 0;
    size_t queued = 0;
    ServingCounters counters;
    LatencyHistogram histogram;
  };

  struct Request {
    std::string algorithm;
    RunContext ctx;
    RunParams params;
    /// Pinned epoch snapshot to execute on; never null. Released
    /// (allowing the epoch to retire) when the request is destroyed after
    /// execution.
    std::shared_ptr<const GraphSnapshot> snapshot;
    std::promise<Result<RunReport>> promise;
    /// Admitting tenant (stable pointer; entries are never erased).
    Tenant* tenant = nullptr;
    /// Tenant priority at admission (snapshotted so a RegisterTenant
    /// reconfigure cannot starve already-queued work).
    int priority = 0;
    /// Canonical result-cache key; empty = do not cache this run.
    std::string cache_key;
    std::chrono::steady_clock::time_point submit_time;
  };

  void SessionLoop() SAGE_EXCLUDES(mu_);
  Result<RunReport> Execute(Request& request);
  /// Completes the request: cache insert on success, counters, latency
  /// recording, then the promise (stats are visible before the future
  /// unblocks).
  void FinishRequest(Request& request, Result<RunReport> result)
      SAGE_EXCLUDES(mu_);

  /// Finds or lazily creates (with the default config) the tenant.
  Tenant& TenantLocked(const std::string& name) SAGE_REQUIRES(mu_);

  /// Index of the next runnable request - highest priority whose tenant is
  /// under its in-flight cap, FIFO within a priority - or queue_.size().
  size_t FindRunnableLocked() const SAGE_REQUIRES(mu_);

  /// Epoch-0 snapshot of the construction graph: what submissions without
  /// a snapshot run on.
  const std::shared_ptr<const GraphSnapshot> snapshot_;
  const Options options_;
  /// Created once in the constructor when cache_bytes > 0; the pointer is
  /// immutable afterwards (safe to read unlocked).
  const std::shared_ptr<ResultCache> cache_;

  mutable Mutex mu_;
  CondVar queue_not_empty_;
  CondVar queue_not_full_;
  std::deque<Request> queue_ SAGE_GUARDED_BY(mu_);
  /// Tenant registry. unique_ptr values keep Tenant addresses stable
  /// across rehashes; entries are never erased.
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants_
      SAGE_GUARDED_BY(mu_);
  ServingCounters counters_ SAGE_GUARDED_BY(mu_);
  bool shutdown_ SAGE_GUARDED_BY(mu_) = false;
  /// Held for the whole of Shutdown() so concurrent shutdowns (destructor
  /// vs. explicit call) both return only after the sessions are joined.
  /// Ordered before mu_: Shutdown takes it first, then flips shutdown_.
  Mutex shutdown_mu_ SAGE_ACQUIRED_BEFORE(mu_);

  /// End-to-end latency across all tenants; internally synchronized.
  LatencyHistogram global_histogram_;

  /// Sized once in the constructor; Shutdown joins the threads under
  /// shutdown_mu_ but never resizes, so sessions() may read it unlocked.
  std::vector<std::thread> sessions_;
};

}  // namespace sage
