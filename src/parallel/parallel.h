// User-facing parallel-loop API: parallel_for, par_do, and worker queries.
// These are thin wrappers over Scheduler that add granularity control.
#pragma once

#include <cstddef>

#include "parallel/scheduler.h"

namespace sage {

/// Number of workers in the current pool (>= 1, includes the main thread).
inline int num_workers() { return Scheduler::Get().num_workers(); }

/// Unique per-thread slot in [0, Scheduler::kMaxShards) for per-thread
/// scratch (size arrays by Scheduler::kMaxShards). Unlike the scheduler's
/// internal worker id - which every foreign thread (main, query sessions)
/// reports as 0 - two concurrent driver/session threads never share a
/// slot, so scratch stays race-free when one run's jobs execute on another
/// run's blocked thread (help-while-waiting). There is deliberately no
/// worker_id() wrapper here: indexing scratch by worker id is the aliasing
/// bug class sage_lint's scratch-by-shard-id check rejects.
inline int shard_id() { return Scheduler::shard_id(); }

/// Runs `left` and `right` as a fork-join pair, potentially in parallel.
template <typename L, typename R>
inline void par_do(L&& left, R&& right) {
  Scheduler::Get().ParDo(left, right);
}

namespace internal {

template <typename B>
void ParForRecurse(Scheduler& sched, size_t lo, size_t hi, size_t grain,
                   const B& body) {
  if (hi - lo <= grain) {
    body(lo, hi);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  sched.ParDo([&] { ParForRecurse(sched, lo, mid, grain, body); },
              [&] { ParForRecurse(sched, mid, hi, grain, body); });
}

inline size_t DefaultGranularity(size_t n, int workers) {
  // Aim for ~8 tasks per worker for load balance, but never make tasks so
  // small that scheduling overhead dominates (the floor keeps sub-256
  // element loops sequential: a fork costs tens of microseconds, which
  // round-heavy algorithms like k-core pay thousands of times), nor larger
  // than a fixed cap so very large loops still rebalance. Callers whose
  // per-iteration work is heavy pass an explicit granularity.
  size_t grain = 1 + n / (8 * static_cast<size_t>(workers));
  const size_t kMinGrain = 256;
  const size_t kMaxGrain = 4096;
  if (grain < kMinGrain) grain = kMinGrain;
  if (grain > kMaxGrain) grain = kMaxGrain;
  return grain;
}

}  // namespace internal

/// Splits [start, end) into disjoint ranges and applies body(lo, hi) to
/// each, in parallel; every call is one task that runs sequentially.
/// `granularity` is the longest range; 0 picks a default based on range
/// size and worker count. One worker runs the whole range as one call.
template <typename B>
inline void parallel_for_ranges(size_t start, size_t end, const B& body,
                                size_t granularity = 0) {
  if (start >= end) return;
  size_t n = end - start;
  Scheduler& sched = Scheduler::Get();
  if (sched.num_workers() == 1) {
    body(start, end);
    return;
  }
  size_t grain = granularity == 0
                     ? internal::DefaultGranularity(n, sched.num_workers())
                     : granularity;
  if (n <= grain) {
    body(start, end);
    return;
  }
  internal::ParForRecurse(sched, start, end, grain, body);
}

/// Applies f(i) for i in [start, end) in parallel. `granularity` is the
/// largest range executed sequentially by one task; 0 picks a default based
/// on range size and worker count.
template <typename F>
inline void parallel_for(size_t start, size_t end, const F& f,
                         size_t granularity = 0) {
  parallel_for_ranges(
      start, end,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) f(i);
      },
      granularity);
}

}  // namespace sage
