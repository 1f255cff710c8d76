# Clang Thread Safety Analysis for the Sage tree.
#
# src/common/thread_annotations.h annotates every lock-protected structure
# in the concurrency core (QueryService, Engine state, EpochManager,
# DeltaLog, Prefetcher, Scheduler, ChunkPool) with capability attributes.
# Those attributes compile to nothing unless -Wthread-safety is on, and the
# analysis itself is Clang-only. SageWarnings.cmake adds -Wthread-safety to
# the shared warning groups behind compiler detection (and defines the
# SAGE_THREAD_SAFETY option); this module escalates the group to an error
# for library code, so in the clang CI lane an unannotated guard or a
# lock-protocol violation fails the build rather than waiting for TSan to
# catch the interleaving at runtime.
#
# Policy for new code (see README "Static analysis"):
#   - Protect data with sage::Mutex and annotate the data
#     SAGE_GUARDED_BY(mu).
#   - Lock with sage::MutexLock, never bare lock()/unlock() pairs.
#   - Condition-variable waits whose predicate reads guarded state use a
#     manual `while (!pred) cv.Wait(lock);` loop, not the predicate-lambda
#     overload (the analysis checks lambda bodies without the caller's
#     locks).
#   - SAGE_NO_THREAD_SAFETY_ANALYSIS is a last resort and needs a comment.

if(SAGE_THREAD_SAFETY AND CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  if(SAGE_WERROR)
    # Library code can never regress the lock protocol; tests and benches
    # (sage::warnings, no -Werror) surface findings without failing.
    target_compile_options(sage_warnings_werror INTERFACE
      -Werror=thread-safety)
  endif()
endif()
