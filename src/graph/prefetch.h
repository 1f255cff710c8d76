// Page-frontier prefetch pipeline for mapped (semi-external) graphs.
//
// An mmap-ed .bsadj graph faults every page synchronously on first touch,
// so cold traversals serialize compute behind storage. Following Blaze's
// I/O-engine / compute-engine split, this module derives each edgeMap
// round's *page frontier* - the page-aligned byte ranges of the mapping
// that hold the adjacency lists (and weights) of the sparse vertex
// frontier - and issues madvise(MADV_WILLNEED) batches for it on a
// background thread while the compute wave runs. The kernel's readahead
// then pulls pages in ahead of the point where compute would fault them,
// overlapping storage reads with edge processing.
//
// Pieces:
//   - ComputePageFrontier: pure function from (CSR offsets, sparse
//     frontier, section layout) to sorted, coalesced, budget-clamped page
//     ranges; unit-testable with synthetic layouts.
//   - Prefetcher: owns the background advice thread. EdgeMap enqueues one
//     wave per round into the pipeline bound to the run's
//     nvram::ExecutionContext (built per run by AlgorithmRegistry when
//     RunContext::prefetch is set and the input graph is mapped); the
//     thread computes the page frontier, checks residency via mincore,
//     and advises the non-resident ranges. A sliding per-wave byte budget
//     and a bounded wave queue keep the pipeline from out-running DRAM:
//     pages beyond the budget are left to the compute wave's synchronous
//     fault path and counted as pages_faulted.
//   - EvictGraphPages: drops a mapped graph's pages from the page tables
//     *and* the page cache (madvise(MADV_DONTNEED) + fsync +
//     posix_fadvise(POSIX_FADV_DONTNEED)), so cold-traversal benchmarks
//     measure genuinely cold first touches.
//
// Accounting: pages the pipeline actually pulls in (non-resident at advice
// time) are charged to the run's cost model as nvram_prefetch_reads - NVRAM
// reads attributed distinctly, off the PSAM critical path (PsamCost and
// EmulatedNanos exclude them; the compute wave still pays its graph-read
// charges as before, so prefetch on/off leaves the PSAM counters
// bit-identical).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "nvram/cost_model.h"

namespace sage {

/// Limits of one Prefetcher. Engine runs use the defaults; RunContext
/// only switches the pipeline on (RunContext::prefetch).
struct PrefetchOptions {
  /// Sliding per-wave byte budget: at most this many bytes of page frontier
  /// are advised per edgeMap round, so advice never out-runs DRAM. Pages
  /// beyond the budget fall back to the synchronous fault path (counted as
  /// pages_faulted). 0 = unlimited.
  uint64_t budget_bytes = 64ull << 20;
  /// Bound on queued waves. The queue only backs up when compute rounds
  /// finish faster than advice is issued; beyond the bound the *oldest*
  /// wave is dropped (its frontier has already been traversed).
  size_t max_queued_waves = 4;
};

/// Counters kept by the Prefetcher (surfaced in RunReport JSON).
struct PrefetchStats {
  /// Waves (edgeMap rounds) enqueued.
  uint64_t waves = 0;
  /// madvise(MADV_WILLNEED) batches issued (one per coalesced page range).
  uint64_t batches = 0;
  /// Pages advised that were non-resident at advice time: the reads the
  /// pipeline initiated ahead of compute.
  uint64_t pages_prefetched = 0;
  /// Pages of the page frontier already resident when advised (no I/O).
  uint64_t pages_resident = 0;
  /// Pages of the page frontier left to compute's synchronous fault path:
  /// dropped by the per-wave budget or by wave-queue overflow.
  uint64_t pages_faulted = 0;
};

/// A half-open, page-aligned byte range within a mapped graph image.
struct PageRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  friend bool operator==(const PageRange& a, const PageRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// Byte layout of the mapped image's CSR sections, as needed to turn vertex
/// ids into page ranges. Mirrors GraphStorage's page-advice accessors;
/// tests construct synthetic layouts directly.
struct PageFrontierLayout {
  /// Byte offset of the neighbors section within the mapping.
  uint64_t neighbors_start = 0;
  /// Byte offset of the weights section; 0 when the image is unweighted.
  uint64_t weights_start = 0;
  /// Total mapping size (ranges are clamped to it).
  uint64_t mapping_bytes = 0;
  /// Page size used for alignment (the system page size in production;
  /// tests pick small powers of two).
  uint64_t page_bytes = 4096;
};

/// Derives the page frontier for one sparse vertex frontier: the sorted,
/// coalesced, page-aligned byte ranges of the mapping holding the
/// adjacency slices (and weight slices, when present) of `frontier`,
/// clamped to at most `budget_bytes` (0 = unlimited). Pages beyond the
/// budget are dropped front-to-back and counted into `*pages_dropped`
/// (may be null). Zero-degree vertices contribute nothing; an empty
/// frontier yields no ranges.
std::vector<PageRange> ComputePageFrontier(std::span<const edge_offset> offsets,
                                           std::span<const vertex_id> frontier,
                                           const PageFrontierLayout& layout,
                                           uint64_t budget_bytes,
                                           uint64_t* pages_dropped = nullptr);

/// The system page size (sysconf(_SC_PAGESIZE)), cached.
uint64_t SystemPageBytes();

/// Background advice pipeline over one mapped graph. Construction spawns
/// the advice thread only when the graph's storage supports page advice
/// (active() is false - and every call a no-op - for in-memory graphs).
/// Thread-safe: waves may be enqueued from any thread; stats() and Drain()
/// synchronize with the advice thread. The destructor drains and joins.
class Prefetcher {
 public:
  /// `cost` (nullable) receives the distinct nvram_prefetch_reads charge
  /// for pages the pipeline pulls in; it must outlive the Prefetcher.
  Prefetcher(const Graph& g, const PrefetchOptions& options,
             nvram::CostModel* cost = nullptr);
  ~Prefetcher();
  SAGE_DISALLOW_COPY_AND_ASSIGN(Prefetcher);

  /// True when the graph is mapped and the advice thread is running.
  bool active() const { return storage_ != nullptr; }

  /// True when `g` reads the mapped offsets this pipeline was built over:
  /// the mapped graph itself, or AddRandomWeights' view of it, which
  /// shares its offsets and neighbors. An updated epoch's weighted view
  /// reads a flattened DRAM copy instead, so it is not covered.
  bool Covers(const Graph& g) const {
    return active() && g.raw_offsets().data() == offsets_.data();
  }

  /// Enqueues the page frontier of one sparse vertex frontier. Copies the
  /// ids; the advice thread does the page math off the critical path.
  void EnqueueWave(std::span<const vertex_id> frontier) SAGE_EXCLUDES(mu_);

  /// Enqueues a whole-section wave for a dense (pull) round, which scans
  /// every adjacency list in order: advises a budget-sized prefix of the
  /// neighbors (and weights) sections.
  void EnqueueDenseWave() SAGE_EXCLUDES(mu_);

  /// Blocks until every enqueued wave has been processed.
  void Drain() SAGE_EXCLUDES(mu_);

  /// Snapshot of the pipeline counters (Drain() first for a final value).
  PrefetchStats stats() const SAGE_EXCLUDES(mu_);

 private:
  struct Wave {
    std::vector<vertex_id> ids;
    bool dense = false;
  };

  /// Counts `wave`, drops the oldest queued wave when the queue is at its
  /// bound, queues `wave` and wakes the advice thread.
  void Enqueue(Wave wave) SAGE_EXCLUDES(mu_);
  void WorkerLoop() SAGE_EXCLUDES(mu_);
  void ProcessWave(const Wave& wave) SAGE_EXCLUDES(mu_);
  void AdviseRanges(const std::vector<PageRange>& ranges) SAGE_EXCLUDES(mu_);
  /// Approximate page count a wave would advise (used to account waves
  /// dropped on queue overflow as left-to-fault). Touches only immutable
  /// layout state, so callers may hold mu_ or not.
  uint64_t EstimatePages(const Wave& wave) const;

  std::shared_ptr<const GraphStorage> storage_;  // keeps the mapping alive
  std::span<const edge_offset> offsets_;
  PageFrontierLayout layout_;
  PrefetchOptions options_;
  nvram::CostModel* cost_ = nullptr;

  /// Bytes of the dense span already advised by earlier dense waves, so
  /// consecutive pull rounds slide through the edge sections instead of
  /// re-advising the same budget prefix. Worker-thread state: only touched
  /// from ProcessWave.
  uint64_t dense_cursor_ = 0;

  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<Wave> queue_ SAGE_GUARDED_BY(mu_);
  bool stop_ SAGE_GUARDED_BY(mu_) = false;
  /// True while the worker processes a wave outside mu_; Drain()'s idle
  /// condition is `queue_.empty() && !busy_`.
  bool busy_ SAGE_GUARDED_BY(mu_) = false;
  PrefetchStats stats_ SAGE_GUARDED_BY(mu_);
  std::thread worker_;
};

/// Evicts a mapped graph's pages from DRAM: madvise(MADV_DONTNEED) over the
/// mapping (drops this process's page tables), then fsync +
/// posix_fadvise(POSIX_FADV_DONTNEED) on `path` (drops the now-unmapped
/// clean pages from the page cache). After this, the next traversal pays
/// genuinely cold first-touch faults. InvalidArgument when the graph is not
/// mapped; IOError when the file cannot be reopened.
Status EvictGraphPages(const Graph& g, const std::string& path);

}  // namespace sage
