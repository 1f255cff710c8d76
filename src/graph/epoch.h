// Epoch/generation management for graph snapshots under live updates.
//
// Every Engine::ApplyUpdates / Engine::Compact publishes a new immutable
// graph view (base, base + overlay, or a recompacted base) as the next
// epoch. In-flight queries pin the epoch current at submission time and
// keep reading it for their whole run - snapshot isolation: a query pinned
// to epoch N never observes epoch N+1 edges.
//
// Pinning is reference counting done by shared_ptr: Pin() hands out the
// current GraphSnapshot, and a custom deleter marks the epoch retired when
// the last holder (including the manager itself, once Advance supersedes
// it) drops the snapshot. Retirement releases the snapshot's Graph first,
// so an epoch whose storage was an mmap-ed image unmaps as soon as its
// last reader finishes - the compaction hot-swap relies on this to drop
// the pre-compaction mapping under live traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"

namespace sage {

/// One immutable published graph view. `delta_edges` is the cumulative
/// structural delta of the view's overlay relative to the on-disk base
/// image (0 for the original image and for freshly compacted epochs).
struct GraphSnapshot {
  GraphSnapshot(uint64_t epoch_number, Graph view, uint64_t delta)
      : epoch(epoch_number), graph(std::move(view)), delta_edges(delta) {}

  SAGE_DISALLOW_COPY_AND_ASSIGN(GraphSnapshot);

  /// AddRandomWeights(graph, seed) for weighted algorithms on an
  /// unweighted graph, built once and kept for the last seed asked for
  /// (another seed replaces it; holders of the old view keep it alive)
  /// until the snapshot is released. Thread-safe; the build runs parallel
  /// work on the shared scheduler.
  std::shared_ptr<const Graph> WeightedView(uint64_t seed) const
      SAGE_EXCLUDES(weighted_mu_);

  uint64_t epoch = 0;
  Graph graph;
  uint64_t delta_edges = 0;

 private:
  mutable Mutex weighted_mu_;
  mutable uint64_t weighted_seed_ SAGE_GUARDED_BY(weighted_mu_) = 0;
  mutable std::shared_ptr<const Graph> weighted_ SAGE_GUARDED_BY(weighted_mu_);
};

class EpochManager {
 public:
  /// Called with the epoch number each time an epoch fully retires (no
  /// snapshot holders left). Invoked outside the manager's locks, after
  /// the snapshot's Graph (and thus any private mapping) is released.
  using RetireCallback = std::function<void(uint64_t epoch)>;

  /// Starts at epoch 0 serving `initial`.
  explicit EpochManager(Graph initial, uint64_t delta_edges = 0);

  SAGE_DISALLOW_COPY_AND_ASSIGN(EpochManager);

  /// The current snapshot, pinned: the epoch cannot retire while the
  /// returned pointer (or any copy) is alive. Safe from any thread.
  std::shared_ptr<const GraphSnapshot> Pin() const;

  uint64_t current_epoch() const;

  /// Publishes `next` as the new current epoch and returns its number.
  /// The superseded epoch begins retiring as soon as its last external
  /// pin drops.
  uint64_t Advance(Graph next, uint64_t delta_edges);

  /// Epochs with live (unretired) snapshots, the current one included.
  size_t live_epochs() const;

  /// Blocks until every epoch numbered below `epoch` has fully retired,
  /// its retire listeners included.
  void WaitForRetiredBelow(uint64_t epoch) const;

  /// Appends a retire listener, called for epochs retiring after the call;
  /// listeners are never replaced or cleared, so subsystems (the Engine's
  /// result cache, test instrumentation) cannot trample each other.
  /// Callers owning a shorter-lived object must capture it by shared_ptr —
  /// a snapshot can outlive the manager and still fires the listeners.
  void AddRetireListener(RetireCallback listener);

 private:
  /// Retirement bookkeeping, shared with every snapshot's deleter so a
  /// snapshot outliving the manager still retires cleanly.
  struct Shared {
    mutable Mutex mu;
    mutable CondVar retired_cv;
    std::set<uint64_t> live SAGE_GUARDED_BY(mu);
    std::vector<RetireCallback> listeners SAGE_GUARDED_BY(mu);
  };

  static std::shared_ptr<const GraphSnapshot> MakeSnapshot(
      std::shared_ptr<Shared> shared, uint64_t epoch, Graph graph,
      uint64_t delta_edges);

  std::shared_ptr<Shared> shared_;
  mutable Mutex mu_;
  std::shared_ptr<const GraphSnapshot> current_ SAGE_GUARDED_BY(mu_);
};

}  // namespace sage
