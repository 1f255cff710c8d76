#include "parallel/scheduler.h"

#include <chrono>
#include <cstdlib>
#include <vector>

namespace sage {

namespace {

// Lease pool for foreign shard slots: slots are handed out from
// [kMaxWorkers, kMaxShards) and returned when the leasing thread exits, so
// long-lived processes that churn driver threads never run out. If more
// than kForeignSlots foreign threads are alive at once, the overflow
// threads alias the top slot (their per-thread counters may then race;
// per-thread sharded structures stay memory-safe because every slot is in
// range).
struct ForeignSlotPool {
  Mutex mu;
  std::vector<int> returned SAGE_GUARDED_BY(mu);
  int next SAGE_GUARDED_BY(mu) = Scheduler::kMaxWorkers;

  int Acquire(bool* owned) SAGE_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (!returned.empty()) {
      int slot = returned.back();
      returned.pop_back();
      *owned = true;
      return slot;
    }
    if (next < Scheduler::kMaxShards - 1) {
      *owned = true;
      return next++;
    }
    *owned = false;  // exhausted: alias the top slot, never recycle it
    return Scheduler::kMaxShards - 1;
  }

  void Release(int slot) SAGE_EXCLUDES(mu) {
    MutexLock lock(mu);
    returned.push_back(slot);
  }
};

ForeignSlotPool& Slots() {
  static ForeignSlotPool* pool = new ForeignSlotPool();
  return *pool;
}

// Thread-local lease: acquired on a thread's first shard_id() call,
// returned when the thread exits.
struct ForeignSlotLease {
  int slot;
  bool owned;
  ForeignSlotLease() { slot = Slots().Acquire(&owned); }
  ~ForeignSlotLease() {
    if (owned) Slots().Release(slot);
  }
};

}  // namespace

int Scheduler::AcquireForeignSlot() {
  static thread_local ForeignSlotLease lease;
  return lease.slot;
}

namespace {

int DefaultNumThreads() {
  if (const char* env = std::getenv("SAGE_NUM_THREADS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<Scheduler>& Instance() {
  static std::unique_ptr<Scheduler> instance;
  return instance;
}

}  // namespace

Scheduler& Scheduler::Get() {
  auto& inst = Instance();
  if (!inst) inst.reset(new Scheduler(DefaultNumThreads()));
  return *inst;
}

void Scheduler::Reset(int num_threads) {
  auto& inst = Instance();
  inst.reset();  // join old pool first
  int n = num_threads > 0 ? num_threads : DefaultNumThreads();
  inst.reset(new Scheduler(n));
}

Scheduler::Scheduler(int num_threads) {
  if (num_threads > kMaxWorkers) num_threads = kMaxWorkers;
  if (num_threads < 1) num_threads = 1;
  num_workers_ = num_threads;
  queues_.reserve(num_workers_);
  for (int i = 0; i < num_workers_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  worker_id_ = 0;
  for (int i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    MutexLock lock(idle_mu_);
    idle_cv_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

void Scheduler::Push(Job* job) {
  WorkerQueue& q = *queues_[worker_id_];
  {
    MutexLock lock(q.mu);
    q.jobs.push_back(job);
  }
  num_jobs_.fetch_add(1, std::memory_order_release);
  NotifyOne();
}

bool Scheduler::TryPopBottomIf(Job* job) {
  WorkerQueue& q = *queues_[worker_id_];
  MutexLock lock(q.mu);
  if (!q.jobs.empty() && q.jobs.back() == job) {
    q.jobs.pop_back();
    num_jobs_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  return false;
}

Scheduler::Job* Scheduler::TrySteal(int thief_id) {
  // Scan all victims starting from a pseudo-random position; with a handful
  // of workers a full scan is cheaper than repeated randomized probing.
  static thread_local uint64_t salt = 0;
  uint64_t start = Hash64(static_cast<uint64_t>(thief_id) * 0x9e37 + salt++);
  for (int k = 0; k < num_workers_; ++k) {
    int victim = static_cast<int>((start + k) % num_workers_);
    WorkerQueue& q = *queues_[victim];
    MutexLock lock(q.mu);
    if (!q.jobs.empty()) {
      Job* job = q.jobs.front();
      q.jobs.pop_front();
      num_jobs_.fetch_sub(1, std::memory_order_release);
      return job;
    }
  }
  return nullptr;
}

void Scheduler::WaitFor(Job* job) {
  // Help-while-waiting: run other jobs until ours completes.
  while (!job->done.load(std::memory_order_acquire)) {
    Job* other = TrySteal(worker_id_);
    if (other != nullptr) {
      RunJob(other);
    } else {
      std::this_thread::yield();
    }
  }
}

void Scheduler::WorkerLoop(int id) {
  worker_id_ = id;
  shard_id_ = id;
  int idle_rounds = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    Job* job = TrySteal(id);
    if (job != nullptr) {
      idle_rounds = 0;
      RunJob(job);
      continue;
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
      continue;
    }
    // Nothing to do for a while: block until new work or shutdown. The
    // notifier holds idle_mu_ when signalling, so the predicate cannot be
    // missed; the timeout is a pure backstop. The predicate-lambda overload
    // is fine here: it reads only atomics, never idle_mu_-guarded state.
    MutexLock lock(idle_mu_);
    idle_cv_.WaitFor(lock, std::chrono::microseconds(100), [this] {
      return shutdown_.load(std::memory_order_acquire) ||
             num_jobs_.load(std::memory_order_acquire) > 0;
    });
    idle_rounds = 0;
  }
}

void Scheduler::NotifyOne() {
  // Taking the mutex orders this notify against the waiter's predicate
  // check: a worker either sees num_jobs_ > 0 before sleeping or receives
  // the notification. Without it, a push could race a worker into a full
  // timeout sleep, serializing fine-grained fork-join phases.
  {
    MutexLock lock(idle_mu_);
  }
  idle_cv_.NotifyOne();
}

}  // namespace sage
