#include "graph/prefetch.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace sage {

namespace {

/// Bytes per PSAM word (the cost model charges word granularity).
constexpr uint64_t kWordBytes = 8;

uint64_t AlignDown(uint64_t x, uint64_t page) { return x / page * page; }
uint64_t AlignUp(uint64_t x, uint64_t page) {
  return (x + page - 1) / page * page;
}

}  // namespace

uint64_t SystemPageBytes() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::vector<PageRange> ComputePageFrontier(std::span<const edge_offset> offsets,
                                           std::span<const vertex_id> frontier,
                                           const PageFrontierLayout& layout,
                                           uint64_t budget_bytes,
                                           uint64_t* pages_dropped) {
  if (pages_dropped != nullptr) *pages_dropped = 0;
  const uint64_t page = layout.page_bytes;
  SAGE_DCHECK(page > 0 && (page & (page - 1)) == 0);
  const bool weighted = layout.weights_start != 0;

  // Raw (unaligned) byte ranges: one adjacency slice per frontier vertex,
  // plus its weight slice when the image carries weights.
  std::vector<PageRange> raw;
  raw.reserve(frontier.size() * (weighted ? 2 : 1));
  for (vertex_id v : frontier) {
    SAGE_DCHECK(static_cast<size_t>(v) + 1 < offsets.size());
    const uint64_t lo = offsets[v];
    const uint64_t hi = offsets[v + 1];
    if (lo == hi) continue;  // zero-degree vertices touch no edge pages
    raw.push_back({layout.neighbors_start + lo * sizeof(vertex_id),
                   layout.neighbors_start + hi * sizeof(vertex_id)});
    if (weighted) {
      raw.push_back({layout.weights_start + lo * sizeof(weight_t),
                     layout.weights_start + hi * sizeof(weight_t)});
    }
  }
  if (raw.empty()) return {};

  // Page-align outward, clamp to the mapping, sort, coalesce. Ranges that
  // merely share a page (or abut) merge, so one madvise batch covers them.
  for (PageRange& r : raw) {
    r.begin = AlignDown(r.begin, page);
    r.end = std::min<uint64_t>(AlignUp(r.end, page), layout.mapping_bytes);
  }
  std::sort(raw.begin(), raw.end(), [](const PageRange& a, const PageRange& b) {
    return a.begin < b.begin;
  });
  std::vector<PageRange> coalesced;
  for (const PageRange& r : raw) {
    if (r.begin >= r.end) continue;  // clamped away
    if (!coalesced.empty() && r.begin <= coalesced.back().end) {
      coalesced.back().end = std::max(coalesced.back().end, r.end);
    } else {
      coalesced.push_back(r);
    }
  }

  // Sliding budget: keep a front-to-back prefix of at most budget_bytes;
  // everything beyond is left to the synchronous fault path.
  if (budget_bytes == 0) return coalesced;
  const uint64_t budget = AlignDown(budget_bytes, page);
  uint64_t used = 0;
  uint64_t dropped = 0;
  std::vector<PageRange> clamped;
  for (const PageRange& r : coalesced) {
    const uint64_t len = r.end - r.begin;
    if (used + len <= budget) {
      clamped.push_back(r);
      used += len;
      continue;
    }
    const uint64_t keep = budget - used;  // page multiple by construction
    if (keep > 0) {
      clamped.push_back({r.begin, r.begin + keep});
      used += keep;
    }
    dropped += (len - keep) / page;
  }
  if (pages_dropped != nullptr) *pages_dropped = dropped;
  return clamped;
}

Prefetcher::Prefetcher(const Graph& g, const PrefetchOptions& options,
                       nvram::CostModel* cost)
    : options_(options), cost_(cost) {
  std::shared_ptr<const GraphStorage> storage = g.storage();
  if (storage == nullptr || !storage->SupportsPageAdvice()) return;
  storage_ = std::move(storage);
  offsets_ = g.raw_offsets();
  layout_.neighbors_start = storage_->NeighborsByteOffset();
  layout_.weights_start = storage_->WeightsByteOffset();
  layout_.mapping_bytes = storage_->MappingBytes();
  layout_.page_bytes = SystemPageBytes();
  worker_ = std::thread([this] { WorkerLoop(); });
}

Prefetcher::~Prefetcher() {
  if (!active()) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  worker_.join();
}

void Prefetcher::EnqueueWave(std::span<const vertex_id> frontier) {
  if (!active() || frontier.empty()) return;
  Enqueue(
      Wave{.ids = std::vector<vertex_id>(frontier.begin(), frontier.end())});
}

void Prefetcher::EnqueueDenseWave() {
  if (!active()) return;
  Enqueue(Wave{.ids = {}, .dense = true});
}

void Prefetcher::Enqueue(Wave wave) {
  {
    MutexLock lock(mu_);
    stats_.waves++;
    if (queue_.size() >= options_.max_queued_waves) {
      // The oldest wave's frontier has already been traversed; its advice
      // can only arrive late. Its pages fall to the synchronous fault path.
      stats_.pages_faulted += EstimatePages(queue_.front());
      queue_.pop_front();
    }
    queue_.push_back(std::move(wave));
  }
  work_cv_.NotifyOne();
}

void Prefetcher::Drain() {
  if (!active()) return;
  // Manual wait loop: the idle predicate reads guarded state, so it runs
  // here with the lock visibly held rather than in a predicate lambda.
  MutexLock lock(mu_);
  while (!(queue_.empty() && !busy_)) idle_cv_.Wait(lock);
}

PrefetchStats Prefetcher::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

uint64_t Prefetcher::EstimatePages(const Wave& wave) const {
  const uint64_t page = layout_.page_bytes;
  if (wave.dense) {
    return (layout_.mapping_bytes - layout_.neighbors_start + page - 1) / page;
  }
  const bool weighted = layout_.weights_start != 0;
  uint64_t bytes = 0;
  for (vertex_id v : wave.ids) {
    const uint64_t deg = offsets_[v + 1] - offsets_[v];
    bytes += deg * (sizeof(vertex_id) + (weighted ? sizeof(weight_t) : 0));
  }
  return (bytes + page - 1) / page;
}

void Prefetcher::WorkerLoop() {
  // Two scoped lock regions per iteration (pop under the lock, process
  // unlocked, clear busy_ under the lock again) instead of one long-held
  // unique_lock with unlock()/lock() pairs: scoped regions are what the
  // thread-safety analysis can follow. busy_ stays true across the
  // unlocked ProcessWave so Drain()'s `queue_.empty() && !busy_` condition
  // still cannot observe a half-processed wave as idle.
  while (true) {
    Wave wave;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(lock);
      if (queue_.empty()) return;  // stop_ set and fully drained
      wave = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    ProcessWave(wave);
    {
      MutexLock lock(mu_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.NotifyAll();
    }
  }
}

void Prefetcher::ProcessWave(const Wave& wave) {
  uint64_t dropped = 0;
  std::vector<PageRange> ranges;
  if (wave.dense) {
    // A pull round scans every adjacency list in vertex order, so its page
    // frontier is the whole edge region (neighbors section, then weights
    // when present). Consecutive dense rounds slide a budget-sized advice
    // window through that span - the cursor persists across waves - rather
    // than re-advising the same prefix each round: a run of k pull rounds
    // covers k budgets of the span once while compute scans behind it.
    const uint64_t page = layout_.page_bytes;
    const uint64_t span_begin = AlignDown(layout_.neighbors_start, page);
    const uint64_t span_end = layout_.mapping_bytes;
    const uint64_t budget = options_.budget_bytes == 0
                                ? span_end - span_begin
                                : AlignDown(options_.budget_bytes, page);
    const uint64_t begin = std::min(span_begin + dense_cursor_, span_end);
    const uint64_t end = std::min(begin + budget, span_end);
    if (begin < end) {
      ranges.push_back({begin, end});
      dense_cursor_ = end - span_begin;
    }
    // What the window has not reached yet is left to this round's
    // synchronous fault path (later dense waves will still advise it).
    dropped = (span_end - std::min(span_end, span_begin + dense_cursor_) +
               page - 1) /
              page;
  } else {
    ranges = ComputePageFrontier(offsets_, wave.ids, layout_,
                                 options_.budget_bytes, &dropped);
  }
  AdviseRanges(ranges);
  MutexLock lock(mu_);
  stats_.pages_faulted += dropped;
}

void Prefetcher::AdviseRanges(const std::vector<PageRange>& ranges) {
  const uint64_t page = layout_.page_bytes;
  uint64_t prefetched = 0, resident = 0, batches = 0;
  for (const PageRange& r : ranges) {
    const uint64_t len = r.end - r.begin;
    const uint64_t pages = (len + page - 1) / page;
    const uint64_t already = storage_->CountResidentPages(r.begin, len);
    storage_->AdviseWillNeed(r.begin, len);
    batches++;
    resident += already;
    prefetched += pages - std::min(pages, already);
  }
  if (cost_ != nullptr && prefetched > 0) {
    // NVRAM reads the pipeline initiated off the critical path, attributed
    // distinctly (excluded from PsamCost / EmulatedNanos).
    cost_->ChargePrefetchRead(prefetched * (page / kWordBytes));
  }
  MutexLock lock(mu_);
  stats_.batches += batches;
  stats_.pages_prefetched += prefetched;
  stats_.pages_resident += resident;
}

Status EvictGraphPages(const Graph& g, const std::string& path) {
  std::shared_ptr<const GraphStorage> storage = g.storage();
  if (storage == nullptr || !storage->SupportsPageAdvice()) {
    return Status::InvalidArgument(
        "EvictGraphPages: graph is not a file mapping");
  }
  // Drop the process's page tables first, so the page-cache eviction below
  // sees the pages unmapped (the kernel skips pages still mapped anywhere).
  storage->AdviseDontNeed(0, storage->MappingBytes());
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot reopen " + path + " for eviction: " +
                           std::strerror(errno));
  }
  // A freshly written image may still have dirty pages, which DONTNEED
  // will not drop; flush them first.
  (void)::fsync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
  return Status::OK();
}

}  // namespace sage
