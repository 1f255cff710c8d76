// ExecutionContext: the per-run execution state of the engine.
//
// An ExecutionContext holds all of one query's state while it runs: a
// CostModel instance (PSAM counters + device configuration: policy, omega,
// NUMA layout, graph residence, MemoryMode cache), a MemoryTracker
// instance (peak intermediate DRAM), the armed deadline and cancel token,
// and the run's prefetch pipeline, if any. AlgorithmRegistry::Run builds
// one per run from its RunContext (which is configuration only), binds it
// to the calling thread with ScopedExecutionContext, and reads the run's
// counters and peak from it afterwards - nothing process-wide is mutated
// or restored, which is what lets any number of runs execute concurrently
// over one shared graph with exact per-run accounting.
//
// Propagation: binding a context stores its address as the scheduler's
// thread-local task tag. Every job forked while the tag is bound carries it
// to whichever worker executes the job (work stealing and
// help-while-waiting included), and Current() resolves the tag back to the
// context. Charging code therefore always reaches the model of the query
// whose work it is executing:
//
//     nvram::Cost().ChargeGraphRead(words, addr);   // the running query's
//     nvram::Memory().Allocate(bytes);              // counters, wherever
//                                                   // this thread is
//
// Cost() is inline: one thread-local load of the tag and a null compare
// (outside a run, a guarded load of the default context).
// The model it returns has already decided each charge kind's route (see
// CostModel), so a charge on the common DRAM/NVRAM routes is a handful of
// inline instructions with no call.
//
// Outside any run - unit tests charging directly, benchmark phases,
// examples - Current() falls back to Default(), a process-wide context
// with the paper's configuration. Runs inherit Default()'s device state
// (InheritDeviceState) so "configure the ambient device, then run" keeps
// working; they simply stop writing back through it.
//
// Lifetime: a context must outlive every structure charged against it.
// The registry guarantees this for engine runs (outputs carry no tracked
// allocations); custom drivers binding their own contexts must keep the
// context alive until tracked structures (VertexSubset, GraphFilter) are
// destroyed.
#pragma once

#include <chrono>
#include <memory>
#include <thread>

#include "common/cancellation.h"
#include "nvram/cost_model.h"
#include "nvram/memory_tracker.h"
#include "parallel/scheduler.h"

namespace sage {
class Prefetcher;
}  // namespace sage

namespace sage::nvram {

/// Per-run execution state: one cost model, one memory tracker, the
/// interrupt checkpoint's deadline and token, and the prefetch pipeline.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  SAGE_DISALLOW_COPY_AND_ASSIGN(ExecutionContext);

  /// Copies the device configuration (emulation config, policy, layout,
  /// residence) from `from`; counters stay at zero.
  void InheritDeviceState(const ExecutionContext& from) {
    const CostModel& src = from.cost_model();
    cost_model_.SetConfig(src.config());
    cost_model_.SetAllocPolicy(src.alloc_policy());
    cost_model_.SetGraphLayout(src.graph_layout());
    cost_model_.SetGraphResidence(src.graph_residence());
  }

  CostModel& cost_model() { return cost_model_; }
  const CostModel& cost_model() const { return cost_model_; }
  MemoryTracker& memory_tracker() { return memory_tracker_; }
  const MemoryTracker& memory_tracker() const { return memory_tracker_; }

  /// The context the calling thread is executing under: the bound context
  /// of the task this worker is running, else Default().
  static ExecutionContext& Current() {
    ExecutionContext* bound = CurrentOrNull();
    return SAGE_LIKELY(bound != nullptr) ? *bound : Default();
  }

  /// The bound context, or nullptr when the thread is outside any run.
  static ExecutionContext* CurrentOrNull() {
    return static_cast<ExecutionContext*>(Scheduler::task_tag());
  }

  /// Process-wide fallback context. Tests, benchmarks, and examples that
  /// charge outside an engine run account here; engine runs inherit its
  /// device state but never write back to it.
  static ExecutionContext& Default() {
    // Leaked singleton: charging may happen from detached threads during
    // process teardown, after function-local statics would have been
    // destroyed.
    static ExecutionContext* const context = new ExecutionContext();
    return *context;
  }

  /// Arms cooperative interruption for this run: an optional cancel token,
  /// an optional absolute deadline (steady clock; time_point::max() means
  /// none), and the run's root thread. With neither a token nor a deadline
  /// the context stays unarmed and CheckInterrupt() never throws.
  /// Checkpoints only throw on the root thread — unwinding a scheduler
  /// worker mid-job would strand the pool — so a trip observed on a worker
  /// is re-observed at the next root-thread checkpoint.
  void ArmInterrupt(std::shared_ptr<CancelToken> cancel,
                    std::chrono::steady_clock::time_point deadline) {
    cancel_ = std::move(cancel);
    deadline_ = deadline;
    root_thread_ = std::this_thread::get_id();
    interruptible_ = cancel_ != nullptr ||
                     deadline_ != std::chrono::steady_clock::time_point::max();
  }

  /// The run's page-frontier prefetch pipeline (graph/prefetch.h), or
  /// nullptr. Not owned: the registry owns it, binds it here before the run
  /// starts, and destroys it after the run's last edgeMap round.
  Prefetcher* prefetcher() const { return prefetcher_; }
  void BindPrefetcher(Prefetcher* prefetcher) { prefetcher_ = prefetcher; }

  /// Interrupt checkpoint: called at edgeMap round boundaries. Throws
  /// QueryInterrupt on the run's root thread when the deadline has passed
  /// or the cancel token is set; no-op elsewhere.
  void CheckInterrupt() const {
    if (SAGE_LIKELY(!interruptible_)) return;
    if (std::this_thread::get_id() != root_thread_) return;
    if (cancel_ && cancel_->cancelled()) {
      throw QueryInterrupt{StatusCode::kCancelled};
    }
    if (deadline_ != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= deadline_) {
      throw QueryInterrupt{StatusCode::kDeadlineExceeded};
    }
  }

 private:
  CostModel cost_model_;
  MemoryTracker memory_tracker_;
  std::shared_ptr<CancelToken> cancel_;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  std::thread::id root_thread_;
  bool interruptible_ = false;
  Prefetcher* prefetcher_ = nullptr;
};

/// The cost model of the calling thread's current ExecutionContext: the
/// per-run model inside an engine run (wherever its work is executing), the
/// process-wide default context's model otherwise.
inline CostModel& Cost() { return ExecutionContext::Current().cost_model(); }

/// RAII scope over the *current* context's counters, exposing the delta
/// charged since construction.
class CostScope {
 public:
  CostScope() { start_ = Cost().Totals(); }
  /// Accesses charged since construction.
  CostTotals Delta() const { return Cost().Totals() - start_; }

 private:
  CostTotals start_;
};

/// RAII binding of an ExecutionContext to the calling thread (and, through
/// the scheduler's task tags, to every job forked while bound). Restores
/// the previous binding on destruction; nests.
class ScopedExecutionContext {
 public:
  explicit ScopedExecutionContext(ExecutionContext& context)
      : previous_(Scheduler::task_tag()) {
    Scheduler::set_task_tag(&context);
  }
  ~ScopedExecutionContext() { Scheduler::set_task_tag(previous_); }

  SAGE_DISALLOW_COPY_AND_ASSIGN(ScopedExecutionContext);

 private:
  void* previous_;
};

}  // namespace sage::nvram
