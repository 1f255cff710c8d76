// Fork-join scheduler for Sage, in the style of Cilk / ParlayLib.
//
// The PSAM's threads follow the binary-forking model: a thread may fork two
// children and block until both complete (Section 3.1 of the paper). This
// scheduler realizes that model with a pool of workers, per-worker LIFO
// deques, randomized stealing from the top, and help-while-waiting joins so
// a blocked ParDo keeps executing useful work.
//
// Design notes:
//  - Jobs live on the stack of the forking ParDo; the join guarantees their
//    lifetime, so no heap allocation happens per fork.
//  - A worker pops its own deque at the bottom (LIFO, cache-friendly) and
//    steals from a random victim's top (FIFO, coarse-grained tasks first).
//  - Worker count comes from SAGE_NUM_THREADS or hardware_concurrency; it
//    can be changed between parallel phases with Scheduler::Reset (used by
//    the scalability benchmark, Figure 6).
//  - Every job carries an opaque task tag captured from the forking thread
//    (Scheduler::task_tag). Whichever worker executes the job - by steal or
//    by help-while-waiting - runs it under that tag and restores its own
//    afterwards. nvram::ExecutionContext uses the tag to route PSAM charges
//    from any worker to the query that forked the work, which is what makes
//    concurrent engine runs over one scheduler accountable per run.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/thread_annotations.h"

namespace sage {

/// Fork-join work-stealing scheduler (process-wide singleton).
class Scheduler {
 public:
  /// Upper bound on pool workers.
  static constexpr int kMaxWorkers = 192;

  /// Shard slots reserved for threads outside the pool (the main thread,
  /// engine query sessions, user driver threads). The top slot is the
  /// overflow alias; the remaining kForeignSlots - 1 are leased uniquely,
  /// so up to that many concurrent driver threads never alias one shard of
  /// a per-thread sharded structure.
  static constexpr int kForeignSlots = 64;

  /// Size for per-thread sharded structures (cost counters, chunk pools):
  /// pool workers use slots [0, kMaxWorkers), foreign threads slots
  /// [kMaxWorkers, kMaxShards).
  static constexpr int kMaxShards = kMaxWorkers + kForeignSlots;

  /// Returns the process-wide scheduler, creating it on first use.
  static Scheduler& Get();

  /// Destroys and recreates the pool with `num_threads` workers (including
  /// the calling thread). Must not be called while parallel work is running.
  /// `num_threads <= 0` restores the default (env/hardware) count.
  static void Reset(int num_threads);

  /// Total workers, including the main thread.
  int num_workers() const { return num_workers_; }

  /// Id of the calling thread: 0 for the main thread, 1..num_workers-1 for
  /// pool workers, 0 for foreign threads.
  static int worker_id() { return worker_id_; }

  /// Stable per-thread slot in [0, kMaxShards) for per-thread sharded
  /// structures. Pool workers use their worker id; every other thread
  /// (main, query sessions, user threads) leases a unique slot from the
  /// foreign range on first use and returns it at thread exit. Unlike
  /// worker_id(), two concurrent foreign threads never share a slot (until
  /// the kForeignSlots - 1 unique leases are exhausted and overflow
  /// threads alias the top slot, far beyond any realistic driver fan-out).
  static int shard_id() {
    if (SAGE_UNLIKELY(shard_id_ < 0)) shard_id_ = AcquireForeignSlot();
    return shard_id_;
  }

  /// The calling thread's current task tag (see set_task_tag).
  static void* task_tag() { return task_tag_; }

  /// Binds an opaque per-task tag to the calling thread. Jobs forked while
  /// a tag is bound carry it to whichever worker executes them; RunJob
  /// installs the job's tag for the duration of the job and restores the
  /// worker's previous tag afterwards. nvram::ScopedExecutionContext is the
  /// intended caller; it stores an ExecutionContext* here.
  static void set_task_tag(void* tag) { task_tag_ = tag; }

  /// Runs left() and right() as a fork-join pair; right() may execute on
  /// another worker. Returns after both complete.
  template <typename L, typename R>
  void ParDo(L&& left, R&& right) {
    if (num_workers_ == 1) {
      left();
      right();
      return;
    }
    TypedJob<std::remove_reference_t<R>> job(std::addressof(right));
    Push(&job);
    left();
    if (TryPopBottomIf(&job)) {
      right();
    } else {
      WaitFor(&job);
    }
  }

  ~Scheduler();
  SAGE_DISALLOW_COPY_AND_ASSIGN(Scheduler);

 private:
  struct Job {
    explicit Job(void (*run_fn)(Job*)) : run(run_fn), tag(task_tag_) {}
    void (*run)(Job*);
    /// Task tag of the forking thread, installed around run() wherever the
    /// job executes.
    void* tag;
    std::atomic<bool> done{false};
  };

  template <typename F>
  struct TypedJob : Job {
    explicit TypedJob(F* fn) : Job(&TypedJob::Run), f(fn) {}
    F* f;
    static void Run(Job* base) {
      auto* self = static_cast<TypedJob*>(base);
      (*self->f)();
      self->done.store(true, std::memory_order_release);
    }
  };

  struct alignas(kCacheLineBytes) WorkerQueue {
    Mutex mu;
    std::deque<Job*> jobs SAGE_GUARDED_BY(mu);  // bottom = back, top = front
  };

  explicit Scheduler(int num_threads);

  void Push(Job* job);
  bool TryPopBottomIf(Job* job);
  Job* TrySteal(int thief_id);
  void RunJob(Job* job) {
    // Execute under the forker's tag; a stolen job must charge the query
    // that forked it, not whatever the thief was doing. RAII restore so an
    // exception unwinding out of the job cannot leave the thread tagged
    // with a context that is about to die.
    struct TagScope {
      void* prev;
      explicit TagScope(void* tag) : prev(task_tag_) { task_tag_ = tag; }
      ~TagScope() { task_tag_ = prev; }
    } scope(job->tag);
    job->run(job);
  }
  void WaitFor(Job* job);
  void WorkerLoop(int id);
  void NotifyOne();

  /// Leases a foreign shard slot for the calling thread (scheduler.cc);
  /// the lease is returned automatically at thread exit.
  static int AcquireForeignSlot();

  // Constant-initialized and defined here, so every translation unit
  // reads them as plain thread-local loads (no TLS wrapper call).
  static inline constinit thread_local int worker_id_ = 0;
  static inline constinit thread_local int shard_id_ = -1;
  static inline constinit thread_local void* task_tag_ = nullptr;

  int num_workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> num_jobs_{0};
  /// Sleep gate for idle workers. It guards no data - the idle predicate
  /// reads only the shutdown_/num_jobs_ atomics - but the notifier takes it
  /// so a push cannot race a worker into a timeout sleep.
  Mutex idle_mu_;
  CondVar idle_cv_;
};

}  // namespace sage
