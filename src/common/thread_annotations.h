// Clang Thread Safety Analysis for Sage's lock protocols.
//
// The concurrency core (QueryService queue, Engine update state, the
// EpochManager's retire bookkeeping, the DeltaLog shards, the Prefetcher
// wave queue, the Scheduler deques, ChunkPool free lists) documents which
// mutex protects which member. These macros turn that documentation into a
// compile-time check: under clang, `-Wthread-safety` (promoted to an error
// by cmake/SageThreadSafety.cmake) rejects any access to a SAGE_GUARDED_BY
// member without its mutex held and any function call that violates a
// SAGE_REQUIRES / SAGE_EXCLUDES contract. Under GCC (and any compiler
// without the attributes) everything expands to nothing, so the annotations
// are free.
//
// The analysis only understands lock objects it can see through annotated
// types, so this header also provides drop-in wrappers over the std
// primitives:
//
//   - sage::Mutex: an annotated capability over std::mutex (it keeps the
//     std Lockable interface, so std::unique_lock and friends still work
//     where needed).
//   - sage::MutexLock: scoped acquisition, the only way annotated code
//     should take a lock.
//   - sage::CondVar: a condition variable that waits on a MutexLock, so
//     wait loops keep the capability visibly held:
//
//         MutexLock lock(mu_);
//         while (!shutdown_ && queue_.empty()) cv_.Wait(lock);
//
//     Write wait loops in this manual form (not the predicate-lambda
//     overloads of std::condition_variable): the analysis does not know a
//     predicate lambda runs with the lock held, so guarded reads inside one
//     would be flagged. Predicates that only read atomics are exempt and
//     may use WaitFor's predicate overload.
//
// Annotation policy (enforced by scripts/sage_lint.py and the CI
// static-analysis lane): every mutex-protected member of a concurrent
// structure carries SAGE_GUARDED_BY; helpers called with a lock already
// held carry SAGE_REQUIRES; public entry points that take a lock
// internally carry SAGE_EXCLUDES where deadlock with the same lock is
// possible. Constructors and destructors are not analyzed by clang (known
// limitation), which is why e.g. QueryService's constructor may touch its
// own guarded members while single-threaded.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(SAGE_NO_THREAD_SAFETY_ATTRIBUTES)
#define SAGE_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define SAGE_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside clang
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define SAGE_CAPABILITY(x) SAGE_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SAGE_SCOPED_CAPABILITY \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// The annotated member may only be accessed while holding the given mutex.
#define SAGE_GUARDED_BY(x) SAGE_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// The pointee of the annotated pointer may only be accessed while holding
/// the given mutex (the pointer itself is unguarded).
#define SAGE_PT_GUARDED_BY(x) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declaration: this mutex must be acquired before the
/// argument mutexes.
#define SAGE_ACQUIRED_BEFORE(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

/// Lock-ordering declaration: this mutex must be acquired after the
/// argument mutexes.
#define SAGE_ACQUIRED_AFTER(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function may only be called with the given capabilities held
/// exclusively; it does not acquire or release them.
#define SAGE_REQUIRES(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// The function acquires the given capabilities (itself when no argument).
#define SAGE_ACQUIRE(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The function releases the given capabilities (itself when no argument).
#define SAGE_RELEASE(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The function acquires the capability only when it returns the given
/// value (e.g. SAGE_TRY_ACQUIRE(true) on a bool try_lock).
#define SAGE_TRY_ACQUIRE(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The function may not be called with the given capabilities held (it
/// acquires them itself; calling with them held would deadlock).
#define SAGE_EXCLUDES(...) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held, teaching the analysis
/// it is (for call paths the analysis cannot follow).
#define SAGE_ASSERT_CAPABILITY(x) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the given capability.
#define SAGE_RETURN_CAPABILITY(x) \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Turns the analysis off for one function. Use only with a comment
/// explaining why the protocol cannot be expressed.
#define SAGE_NO_THREAD_SAFETY_ANALYSIS \
  SAGE_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace sage {

/// Annotated exclusive mutex over std::mutex. Prefer MutexLock over calling
/// Lock()/Unlock() directly. The lowercase std Lockable surface is kept so
/// std::unique_lock<Mutex> and std::condition_variable_any work (calls made
/// from inside system headers are outside the analysis).
class SAGE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SAGE_ACQUIRE() { mu_.lock(); }
  bool TryLock() SAGE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void Unlock() SAGE_RELEASE() { mu_.unlock(); }

  // std Lockable interface (BasicLockable + try_lock).
  void lock() SAGE_ACQUIRE() { mu_.lock(); }
  bool try_lock() SAGE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() SAGE_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Scoped exclusive hold on a Mutex; the unit of locking in annotated code.
class SAGE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SAGE_ACQUIRE(mu) : lock_(mu) {}
  ~MutexLock() SAGE_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<Mutex> lock_;
};

/// Condition variable waiting on a MutexLock, so wait loops keep the
/// capability visibly held for the analysis (see the header comment for the
/// manual wait-loop form). Wraps std::condition_variable_any.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks until notified; the
  /// mutex is re-held on return. Spurious wakeups happen: always wait in a
  /// loop re-checking the guarded condition.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// As Wait, but returns std::cv_status::timeout after `timeout`.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  /// Timed wait with a predicate. The predicate runs with the mutex held
  /// but the analysis cannot see that: only pass predicates over atomics or
  /// otherwise unguarded state (guarded reads belong in a manual loop).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& timeout,
               Predicate predicate) {
    return cv_.wait_for(lock.lock_, timeout, std::move(predicate));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sage
