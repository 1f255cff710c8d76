// sage::Engine: the facade bundling a graph with a RunContext, a
// concurrent query front door, and the dynamic-update subsystem.
//
// An Engine owns the (NVRAM-resident, read-only) input graph and the run
// configuration, and exposes one call for everything:
//
//   sage::Engine engine(sage::RmatGraph(20, 1 << 24, /*seed=*/1));
//   auto bfs = engine.Run("bfs");                       // default params
//   auto sssp = engine.Run("bellman-ford", {.source = 5});
//   if (sssp.ok()) std::puts(sssp.ValueOrDie().ToJson().c_str());
//
// Concurrent queries: Submit() enqueues a run onto the engine's
// QueryService - a bounded queue drained by a fixed pool of session
// threads sharing the one graph image - and returns a
// std::future<Result<RunReport>>:
//
//   auto f1 = engine.Submit("bfs", {.source = 0});
//   auto f2 = engine.Submit("pagerank");                // overlaps with f1
//   auto r1 = f1.get();                                 // own exact counters
//
// Dynamic updates (graph/delta.h, graph/epoch.h): ApplyUpdates() appends a
// batch of edge inserts/deletes to a sharded DeltaLog and group-commits the
// drained log into a DRAM overlay over the immutable base image, publishing
// the merged view as a new epoch. Every Submit() pins the epoch current at
// submission, so in-flight queries keep a consistent snapshot - a query
// pinned to epoch N never observes epoch N+1 edges. Compact() folds the
// overlay into a fresh base; when the engine was opened from a .bsadj image
// (FromFile) the image is rewritten and atomically renamed over the
// original, then remapped - the old mapping stays alive for pinned readers
// and is unmapped when the last epoch-N snapshot retires.
//
//   engine.ApplyUpdates({sage::EdgeUpdate::Insert(3, 9)});   // epoch 1
//   auto r = engine.Run("bfs");       // r.graph_epoch == 1, sees (3, 9)
//   engine.Compact();                 // delta folded in; epoch 2, delta 0
//
// Thread-safety contract: Submit(), Run(), graph(), ApplyUpdates(),
// Compact(), and PinSnapshot() may be called from any number of threads
// concurrently; each run executes under its own nvram::ExecutionContext,
// so reports never bleed into each other.
// context() returns a mutable reference and must not be modified while
// queries are in flight. Moving an Engine is cheap (its state is heap-held
// and address-stable) but must not race in-flight queries.
//
// Run() is a thin synchronous wrapper over Submit(): same queue, same
// session pool, block on the future. A weighted algorithm on an unweighted
// graph reads its snapshot's weighted view (GraphSnapshot::WeightedView).
#pragma once

#include <cstdint>
#include <cstdio>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/query_service.h"
#include "api/registry.h"
#include "common/thread_annotations.h"
#include "graph/binary_format.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/epoch.h"
#include "graph/graph.h"
#include "graph/io.h"

namespace sage {

class Engine {
 public:
  /// Result of one ApplyUpdates call.
  struct UpdateStats {
    /// Epoch serving the updates (the current epoch when this call's
    /// updates were group-committed by a concurrent writer).
    uint64_t epoch = 0;
    /// Updates this call applied itself (its own batch plus any pending
    /// log entries it drained); 0 when a concurrent writer's group commit
    /// absorbed this call's batch.
    uint64_t applied = 0;
    /// Cumulative directed edge slots inserted/deleted vs the base image.
    uint64_t delta_edges = 0;
  };

  /// Result of one Compact call.
  struct CompactionStats {
    uint64_t epoch = 0;
    /// Directed edges in the compacted base.
    uint64_t num_edges = 0;
    /// True when the on-disk .bsadj image was rewritten, renamed over the
    /// original path, and remapped as the new NVRAM-resident base.
    bool image_rewritten = false;
  };

  explicit Engine(Graph graph, RunContext ctx = RunContext{})
      : state_(std::make_unique<State>()) {
    state_->graph = std::move(graph);
    state_->ctx = ctx;
    state_->base = state_->graph;
    state_->epochs = std::make_unique<EpochManager>(state_->graph);
  }

  /// Loads the graph at `path` in any format ReadGraphAuto understands and
  /// wraps it in an engine. Binary .bsadj images open zero-copy as
  /// NVRAM-resident mappings (Graph::nvram_resident()), so the engine's
  /// runs charge graph reads as NVRAM under every policy - the
  /// semi-external setup with no parse-and-rebuild step. For mapped images
  /// the path is remembered: Compact() rewrites it in place.
  static Result<Engine> FromFile(const std::string& path,
                                 RunContext ctx = RunContext{},
                                 bool symmetric = true) {
    auto graph = ReadGraphAuto(path, symmetric);
    if (!graph.ok()) return graph.status();
    Engine engine(graph.TakeValue(), ctx);
    if (engine.state_->graph.nvram_resident()) {
      // The engine is not yet shared, but the guard is cheap and keeps the
      // image_path invariant checkable.
      MutexLock lock(engine.state_->update_mu);
      engine.state_->image_path = path;
    }
    return engine;
  }

  /// Runs a registered algorithm on the engine's current snapshot under
  /// its context, synchronously: submits onto the query service and
  /// blocks on the future.
  Result<RunReport> Run(const std::string& algorithm,
                        const RunParams& params = RunParams{}) {
    return Submit(algorithm, params).get();
  }

  /// Enqueues a registered algorithm onto the engine's query service and
  /// returns the future run report. The query is pinned to the epoch
  /// current at submission (snapshot isolation against concurrent
  /// ApplyUpdates/Compact). Queries overlap up to the service's session
  /// count; the queue bounds backpressure (Submit blocks while full).
  /// Safe from any thread.
  std::future<Result<RunReport>> Submit(const std::string& algorithm,
                                        const RunParams& params = RunParams{}) {
    return service().Submit(algorithm, state_->ctx, params,
                            state_->epochs->Pin());
  }

  /// As above, under `tenant`'s admission quota, concurrency cap, and
  /// priority (QueryService::RegisterTenant via service()). `ctx` lets a
  /// submission override the engine context per call - deadline_ms and
  /// cancel ride here.
  std::future<Result<RunReport>> Submit(const std::string& algorithm,
                                        const RunParams& params,
                                        const RunContext& ctx,
                                        const std::string& tenant) {
    return service().Submit(algorithm, ctx, params, state_->epochs->Pin(),
                            tenant);
  }

  /// Appends `updates` to the delta log and group-commits: the calling
  /// thread that wins the commit lock drains the whole log (its batch plus
  /// any batches appended concurrently) into a new overlay epoch built
  /// copy-on-write over the previous one; losers return as soon as their
  /// batch is covered by a committed epoch. InvalidArgument (nothing
  /// applied, nothing logged) when any update references a vertex >= n -
  /// updates never grow the vertex set. Safe from any thread; in-flight
  /// queries are unaffected (they hold their own epoch pins).
  Result<UpdateStats> ApplyUpdates(std::span<const EdgeUpdate> updates) {
    State& s = *state_;
    const vertex_id n = s.graph.num_vertices();
    for (const EdgeUpdate& e : updates) {
      if (e.u >= n || e.v >= n) {
        return Status::InvalidArgument(
            "edge update (" + std::to_string(e.u) + ", " +
            std::to_string(e.v) + ") references a vertex >= n=" +
            std::to_string(n) + " (updates cannot grow the vertex set)");
      }
    }
    if (updates.empty()) {
      MutexLock lock(s.update_mu);
      return UpdateStats{s.epochs->current_epoch(), 0, CurrentDeltaLocked(s)};
    }
    const uint64_t seq = s.delta_log.Append(updates);
    MutexLock lock(s.update_mu);
    uint64_t applied = 0;
    if (s.applied_seq < seq) {
      // Otherwise a concurrent writer's group commit drained this batch
      // already, and the current epoch serves it.
      auto published = PublishPendingLocked(s);
      if (!published.ok()) return published.status();
      applied = published.ValueOrDie();
    }
    return UpdateStats{s.epochs->current_epoch(), applied,
                       CurrentDeltaLocked(s)};
  }

  /// Convenience overload for brace-initialized batches.
  Result<UpdateStats> ApplyUpdates(std::initializer_list<EdgeUpdate> updates) {
    return ApplyUpdates(
        std::span<const EdgeUpdate>(updates.begin(), updates.size()));
  }

  /// Merges the delta overlay into a fresh base and publishes it as a new
  /// epoch with delta 0. Not-yet-committed log entries are first published
  /// as an overlay epoch of their own, so a failed rewrite never loses an
  /// acknowledged update. When the engine was opened from a mapped .bsadj
  /// image, the merged graph is written beside the image and atomically
  /// renamed over it, then mapped as the new NVRAM-resident base - readers
  /// pinned to older epochs keep the superseded mapping alive until they
  /// retire, at which point it is unmapped (the hot-swap under live
  /// traffic). In-memory engines just swap in the merged arrays. A no-op
  /// (current epoch, no bump) when there is nothing to merge. Safe from any
  /// thread.
  Result<CompactionStats> Compact() {
    State& s = *state_;
    MutexLock lock(s.update_mu);
    auto published = PublishPendingLocked(s);
    if (!published.ok()) return published.status();
    if (s.overlay == nullptr) {
      // Nothing to merge: keep the current epoch.
      return CompactionStats{s.epochs->current_epoch(), s.base.num_edges(),
                             false};
    }
    Graph merged = FlattenOverlay(MakeOverlayGraph(s.base, s.overlay));
    CompactionStats stats;
    if (!s.image_path.empty()) {
      const std::string tmp = s.image_path + ".compact.tmp";
      Status written = WriteBinaryGraph(merged, tmp);
      if (!written.ok()) return written;
      if (std::rename(tmp.c_str(), s.image_path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::IOError("compaction rename " + tmp + " -> " +
                               s.image_path + " failed");
      }
      auto mapped = MapBinaryGraph(s.image_path);
      if (!mapped.ok()) return mapped.status();
      s.base = mapped.TakeValue();
      stats.image_rewritten = true;
    } else {
      s.base = std::move(merged);
    }
    s.overlay = nullptr;
    stats.epoch = s.epochs->Advance(s.base, 0);
    stats.num_edges = s.base.num_edges();
    return stats;
  }

  /// Pins the current epoch's snapshot: the returned view (graph + epoch +
  /// delta count) stays consistent and alive for as long as the pointer is
  /// held, regardless of concurrent updates or compactions.
  std::shared_ptr<const GraphSnapshot> PinSnapshot() const {
    return state_->epochs->Pin();
  }

  /// The current epoch number (0 until the first ApplyUpdates/Compact).
  uint64_t epoch() const { return state_->epochs->current_epoch(); }

  /// Cumulative structural delta of the current epoch vs the base image.
  uint64_t delta_edges() const { return PinSnapshot()->delta_edges; }

  /// Updates appended but not yet group-committed into an epoch.
  uint64_t pending_updates() const { return state_->delta_log.pending(); }

  /// The epoch manager (retire listeners / live-epoch introspection for
  /// tests and monitoring).
  EpochManager& epochs() { return *state_->epochs; }

  /// The engine's query service, started on first use. Pass Options to the
  /// first call to size the session pool / queue; later calls return the
  /// running service unchanged.
  QueryService& service(QueryService::Options options = QueryService::Options{}) {
    State& s = *state_;
    std::call_once(s.service_once, [&] {
      s.service = std::make_unique<QueryService>(s.graph, options);
      if (const std::shared_ptr<ResultCache>& cache = s.service->cache()) {
        // Epoch-keyed invalidation: a retired epoch can never be pinned
        // again, so its entries can never hit - drop them eagerly. The
        // listener captures the cache by shared_ptr (not the service), so
        // a snapshot outliving the engine still retires safely.
        s.epochs->AddRetireListener(
            [cache](uint64_t epoch) { cache->DropEpoch(epoch); });
      }
    });
    return *s.service;
  }

  /// The graph the next query would run on: the current epoch's view
  /// (base + any overlay). Returned by value - Graph copies share their
  /// storage - so the caller's view stays valid and consistent across
  /// concurrent ApplyUpdates / Compact calls.
  Graph graph() const { return state_->epochs->Pin()->graph; }

  RunContext& context() { return state_->ctx; }
  const RunContext& context() const { return state_->ctx; }

 private:
  /// Heap-held so the engine stays cheaply movable while the graph and
  /// service keep stable addresses for in-flight queries.
  struct State {
    /// The epoch-0 construction graph (the query service's own snapshot).
    /// Never reassigned.
    Graph graph;
    RunContext ctx;
    std::once_flag service_once;
    std::unique_ptr<QueryService> service;

    // --- Dynamic-update state (guarded by update_mu except delta_log,
    // --- which is internally synchronized) -------------------------------
    Mutex update_mu;
    /// Current overlay-free base (the construction graph until the first
    /// compaction swaps in a merged one).
    Graph base SAGE_GUARDED_BY(update_mu);
    /// Overlay of updates applied since the last compaction; nullptr when
    /// the base is clean.
    std::shared_ptr<const DeltaOverlay> overlay SAGE_GUARDED_BY(update_mu);
    /// .bsadj path backing `base` when it is a file mapping ("" otherwise);
    /// Compact() rewrites it.
    std::string image_path SAGE_GUARDED_BY(update_mu);
    /// Sharded concurrent log of appended-but-uncommitted updates.
    DeltaLog delta_log;
    /// Highest log sequence folded into the current overlay/base.
    uint64_t applied_seq SAGE_GUARDED_BY(update_mu) = 0;
    std::unique_ptr<EpochManager> epochs;
  };

  static uint64_t CurrentDeltaLocked(State& s) SAGE_REQUIRES(s.update_mu) {
    return s.overlay == nullptr ? 0 : s.overlay->delta_edges();
  }

  /// The drain-apply-publish step ApplyUpdates and Compact share: drains
  /// every pending log entry into the overlay and publishes the merged
  /// view as the next epoch. Returns the number of updates applied (0,
  /// with no new epoch, when the log was empty).
  static Result<uint64_t> PublishPendingLocked(State& s)
      SAGE_REQUIRES(s.update_mu) {
    uint64_t last = s.applied_seq;
    std::vector<EdgeUpdate> batch = s.delta_log.Drain(&last);
    if (batch.empty()) return uint64_t{0};
    auto next = ApplyUpdateBatch(s.base, s.overlay, batch);
    if (!next.ok()) return next.status();  // unreachable: ids validated
    s.overlay = next.TakeValue();
    s.applied_seq = last;
    s.epochs->Advance(MakeOverlayGraph(s.base, s.overlay),
                      s.overlay->delta_edges());
    return uint64_t{batch.size()};
  }

  std::unique_ptr<State> state_;
};

}  // namespace sage
