#include "graph/epoch.h"

#include "graph/builder.h"

namespace sage {

std::shared_ptr<const Graph> GraphSnapshot::WeightedView(uint64_t seed) const {
  SAGE_DCHECK(!graph.weighted());
  // Built under the lock: concurrent first runs of one seed wait for one
  // build instead of each paying for their own.
  MutexLock lock(weighted_mu_);
  if (weighted_ == nullptr || weighted_seed_ != seed) {
    weighted_ = std::make_shared<const Graph>(AddRandomWeights(graph, seed));
    weighted_seed_ = seed;
  }
  return weighted_;
}

EpochManager::EpochManager(Graph initial, uint64_t delta_edges)
    : shared_(std::make_shared<Shared>()) {
  current_ = MakeSnapshot(shared_, 0, std::move(initial), delta_edges);
}

std::shared_ptr<const GraphSnapshot> EpochManager::Pin() const {
  MutexLock lock(mu_);
  return current_;
}

uint64_t EpochManager::current_epoch() const {
  MutexLock lock(mu_);
  return current_->epoch;
}

uint64_t EpochManager::Advance(Graph next, uint64_t delta_edges) {
  // Build the snapshot outside mu_ (registration takes shared_->mu), then
  // swap it in. The superseded snapshot's reference drops here; if no
  // query holds a pin it retires immediately on this thread.
  std::shared_ptr<const GraphSnapshot> superseded;
  uint64_t epoch;
  {
    MutexLock lock(mu_);
    epoch = current_->epoch + 1;
    superseded = std::move(current_);
    current_ = MakeSnapshot(shared_, epoch, std::move(next), delta_edges);
  }
  return epoch;
}

size_t EpochManager::live_epochs() const {
  MutexLock lock(shared_->mu);
  return shared_->live.size();
}

void EpochManager::WaitForRetiredBelow(uint64_t epoch) const {
  // Manual wait loop: the predicate reads the guarded `live` set, so it
  // must run in this scope (where thread-safety analysis sees the lock
  // held), not inside a predicate lambda.
  MutexLock lock(shared_->mu);
  while (!(shared_->live.empty() || *shared_->live.begin() >= epoch)) {
    shared_->retired_cv.Wait(lock);
  }
}

void EpochManager::AddRetireListener(RetireCallback listener) {
  MutexLock lock(shared_->mu);
  shared_->listeners.push_back(std::move(listener));
}

std::shared_ptr<const GraphSnapshot> EpochManager::MakeSnapshot(
    std::shared_ptr<Shared> shared, uint64_t epoch, Graph graph,
    uint64_t delta_edges) {
  {
    MutexLock lock(shared->mu);
    shared->live.insert(epoch);
  }
  auto* snapshot = new GraphSnapshot{epoch, std::move(graph), delta_edges};
  return std::shared_ptr<const GraphSnapshot>(
      snapshot, [shared = std::move(shared)](const GraphSnapshot* s) {
        const uint64_t retired = s->epoch;
        // Release the graph (and with it any storage the epoch privately
        // held, e.g. a superseded file mapping) and run the retire
        // listeners BEFORE announcing retirement, so waiters observe the
        // mapping already dropped and the listeners' effects (cache
        // invalidation) already applied.
        delete s;
        std::vector<RetireCallback> listeners;
        {
          MutexLock lock(shared->mu);
          listeners = shared->listeners;
        }
        for (const RetireCallback& listener : listeners) listener(retired);
        {
          MutexLock lock(shared->mu);
          shared->live.erase(retired);
        }
        shared->retired_cv.NotifyAll();
      });
}

}  // namespace sage
