#include "graph/sharded_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "parallel/parallel.h"

namespace sage {

namespace {

std::string ErrnoString() { return std::strerror(errno); }

uint64_t PageBytes() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

uint64_t AlignDownPage(uint64_t x) { return x / PageBytes() * PageBytes(); }
uint64_t AlignUpPage(uint64_t x) { return AlignDownPage(x + PageBytes() - 1); }

/// RAII fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

Status PreadExact(int fd, void* dst, uint64_t bytes, uint64_t off,
                  const std::string& path, const char* what) {
  auto* p = static_cast<uint8_t*>(dst);
  while (bytes > 0) {
    ssize_t got = ::pread(fd, p, bytes, static_cast<off_t>(off));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read error in " + path + " (" + what +
                             "): " + ErrnoString());
    }
    if (got == 0) {
      return Status::Corruption(path + ": truncated " + std::string(what));
    }
    p += got;
    off += static_cast<uint64_t>(got);
    bytes -= static_cast<uint64_t>(got);
  }
  return Status::OK();
}

/// Splices a segment section into the assembled region: the destination
/// byte range [dst_lo, dst_hi) receives the file bytes starting at
/// src_start. Whole interior pages arrive via MAP_FIXED (zero-copy, the
/// congruence contract makes src page-aligned there); the partial pages at
/// the range ends are pread into the reservation's anonymous pages.
Status SpliceSection(uint8_t* region, uint64_t dst_lo, uint64_t dst_hi,
                     int fd, uint64_t src_start, const std::string& path,
                     const char* what) {
  if (dst_lo == dst_hi) return Status::OK();
  const uint64_t interior_lo = AlignUpPage(dst_lo);
  const uint64_t interior_hi = AlignDownPage(dst_hi);
  if (interior_lo >= interior_hi) {
    // The whole section fits inside one page: plain copy.
    return PreadExact(fd, region + dst_lo, dst_hi - dst_lo, src_start, path,
                      what);
  }
  const uint64_t src_interior = src_start + (interior_lo - dst_lo);
  SAGE_DCHECK(src_interior % PageBytes() == 0);
  void* mapped = ::mmap(region + interior_lo,
                        static_cast<size_t>(interior_hi - interior_lo),
                        PROT_READ, MAP_PRIVATE | MAP_FIXED, fd,
                        static_cast<off_t>(src_interior));
  if (mapped == MAP_FAILED) {
    return Status::IOError("mmap failed splicing " + std::string(what) +
                           " of " + path + ": " + ErrnoString());
  }
  SAGE_RETURN_IF_ERROR(PreadExact(fd, region + dst_lo, interior_lo - dst_lo,
                                  src_start, path, what));
  return PreadExact(fd, region + interior_hi, dst_hi - interior_hi,
                    src_start + (interior_hi - dst_lo), path, what);
}

/// Segment-specific header validation: the monolithic rules minus 64-byte
/// section alignment (segments are page-congruent instead, see shard.h),
/// plus consistency with the shard's manifest entry.
Status ValidateSegmentHeader(const BinaryGraphHeader& h, const ShardInfo& info,
                             const ShardManifest& mf, uint64_t file_size,
                             const std::string& path) {
  if (!HasBinaryGraphMagic(h.magic, sizeof(h.magic))) {
    return Status::Corruption(path + ": not a .bsadj segment (bad magic)");
  }
  if (h.endian_tag != kBinaryGraphEndianTag) {
    return Status::Corruption(path + ": bad endian tag");
  }
  if (h.version == 0 || h.version > kBinaryGraphVersion) {
    return Status::Corruption(path + ": unsupported segment version " +
                              std::to_string(h.version));
  }
  if (h.type_widths != kBinaryGraphTypeWidths) {
    return Status::Corruption(path +
                              ": segment type widths do not match this build");
  }
  if ((h.flags & kBinaryGraphShardSegmentFlag) == 0) {
    return Status::Corruption(path + ": not flagged as a shard segment "
                              "(manifest points at a monolithic image?)");
  }
  const bool weighted = (h.flags & kBinaryGraphWeightedFlag) != 0;
  if (weighted != mf.weighted) {
    return Status::Corruption(path + ": segment weightedness disagrees with "
                              "the manifest");
  }
  const uint64_t n_i = info.vertex_end - info.vertex_begin;
  const uint64_t m_i = info.edge_end - info.edge_begin;
  if (h.num_vertices != n_i || h.num_edges != m_i) {
    return Status::Corruption(path + ": segment n/m disagree with the "
                              "manifest shard ranges");
  }
  const uint64_t want =
      info.edge_begin * sizeof(vertex_id) % PageBytes();
  auto section_ok = [&](uint64_t start, uint64_t bytes, uint64_t align) {
    return start >= sizeof(BinaryGraphHeader) && start % align == 0 &&
           start <= file_size && bytes <= file_size - start;
  };
  if (!section_ok(h.offsets_start, (n_i + 1) * sizeof(edge_offset),
                  sizeof(edge_offset))) {
    return Status::Corruption(path + ": offsets section out of bounds "
                              "(truncated segment?)");
  }
  if (!section_ok(h.neighbors_start, m_i * sizeof(vertex_id),
                  sizeof(vertex_id)) ||
      h.neighbors_start % PageBytes() != want) {
    return Status::Corruption(path + ": neighbors section out of bounds or "
                              "not page-congruent to the shard edge range");
  }
  if (weighted) {
    if (!section_ok(h.weights_start, m_i * sizeof(weight_t),
                    sizeof(weight_t)) ||
        h.weights_start % PageBytes() != want) {
      return Status::Corruption(path + ": weights section out of bounds or "
                                "not page-congruent to the shard edge range");
    }
  } else if (h.weights_start != 0) {
    return Status::Corruption(path + ": unweighted segment carries a weights "
                              "section offset");
  }
  return Status::OK();
}

}  // namespace

ShardedGraphStorage::~ShardedGraphStorage() {
  if (base_ != nullptr) ::munmap(base_, total_bytes_);
}

std::pair<void*, size_t> ShardedGraphStorage::PageSpan(uint64_t offset,
                                                       uint64_t bytes) const {
  if (base_ == nullptr || offset >= total_bytes_) return {nullptr, 0};
  uint64_t end = std::min<uint64_t>(total_bytes_, offset + bytes);
  uint64_t begin = AlignDownPage(offset);
  return {static_cast<uint8_t*>(base_) + begin,
          static_cast<size_t>(end - begin)};
}

void ShardedGraphStorage::AdviseWillNeed(uint64_t offset,
                                         uint64_t bytes) const {
  auto [addr, len] = PageSpan(offset, bytes);
  if (len > 0) (void)::madvise(addr, len, MADV_WILLNEED);
}

void ShardedGraphStorage::AdviseDontNeed(uint64_t offset,
                                         uint64_t bytes) const {
  // MADV_DONTNEED zeroes anonymous pages, and the pages at shard
  // boundaries of the assembled region are anonymous copies - dropping
  // those would corrupt the CSR. Restrict the advice to whole pages
  // strictly inside each shard's file-backed interior; boundary pages (at
  // most one per shard per section) just stay resident.
  auto [addr, len] = PageSpan(offset, bytes);
  if (len == 0) return;
  const uint64_t begin =
      static_cast<uint64_t>(static_cast<uint8_t*>(addr) -
                            static_cast<uint8_t*>(base_));
  const uint64_t end = begin + len;
  auto drop_interior = [&](uint64_t sec_lo, uint64_t sec_hi) {
    const uint64_t lo = AlignUpPage(std::max(begin, sec_lo));
    const uint64_t hi = AlignDownPage(std::min(end, sec_hi));
    if (lo < hi) {
      (void)::madvise(static_cast<uint8_t*>(base_) + lo,
                      static_cast<size_t>(hi - lo), MADV_DONTNEED);
    }
  };
  for (uint32_t s = 0; s < shard_count(); ++s) {
    const uint64_t e0 = edge_starts_[s] * sizeof(vertex_id);
    const uint64_t e1 = edge_starts_[s + 1] * sizeof(vertex_id);
    drop_interior(AlignUpPage(e0), AlignDownPage(e1));
    if (weights_base_ != 0) {
      drop_interior(weights_base_ + AlignUpPage(e0),
                    weights_base_ + AlignDownPage(e1));
    }
  }
}

uint64_t ShardedGraphStorage::CountResidentPages(uint64_t offset,
                                                 uint64_t bytes) const {
  auto [addr, len] = PageSpan(offset, bytes);
  if (len == 0) return 0;
  const uint64_t page = PageBytes();
  const size_t pages = static_cast<size_t>((len + page - 1) / page);
  std::vector<unsigned char> vec(pages);
  if (::mincore(addr, len, vec.data()) != 0) return 0;
  uint64_t resident = 0;
  for (unsigned char byte : vec) resident += (byte & 1u);
  return resident;
}

Result<Graph> MapShardedGraph(const std::string& manifest_path) {
  Result<ShardManifest> parsed = ReadShardManifest(manifest_path);
  if (!parsed.ok()) return parsed.status();
  const ShardManifest mf = parsed.TakeValue();
  const std::string dir = [&] {
    size_t slash = manifest_path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : manifest_path.substr(0, slash + 1);
  }();

  const uint64_t n = mf.num_vertices;
  const uint64_t m = mf.num_edges;
  auto storage =
      std::shared_ptr<ShardedGraphStorage>(new ShardedGraphStorage());
  storage->offsets_.assign(n + 1, 0);
  storage->edge_starts_.reserve(mf.shards.size() + 1);
  for (const ShardInfo& info : mf.shards) {
    storage->edge_starts_.push_back(info.edge_begin);
  }
  storage->edge_starts_.push_back(static_cast<edge_offset>(m));

  // One reservation covering the dense neighbor array and (page-aligned
  // above it) the dense weight array. MAP_NORESERVE: all but the boundary
  // pages are immediately replaced by file mappings.
  const uint64_t nb_bytes = m * sizeof(vertex_id);
  const uint64_t weights_base = mf.weighted ? AlignUpPage(nb_bytes) : 0;
  const uint64_t total =
      mf.weighted ? weights_base + m * sizeof(weight_t) : nb_bytes;
  uint8_t* region = nullptr;
  if (total > 0) {
    void* base =
        ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      return Status::IOError("cannot reserve " + std::to_string(total) +
                             " bytes for " + manifest_path + ": " +
                             ErrnoString());
    }
    region = static_cast<uint8_t*>(base);
    storage->base_ = base;
    storage->total_bytes_ = total;
    storage->weights_base_ = weights_base;
  }

  std::vector<edge_offset> local;
  for (const ShardInfo& info : mf.shards) {
    const std::string path = dir + info.segment_path;
    Fd f;
    f.fd = ::open(path.c_str(), O_RDONLY);
    if (f.fd < 0) {
      return Status::IOError("cannot open segment " + path + ": " +
                             ErrnoString());
    }
    struct stat st;
    if (::fstat(f.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      return Status::IOError("cannot stat segment " + path +
                             " (or not a regular file)");
    }
    if (static_cast<uint64_t>(st.st_size) != info.file_bytes) {
      return Status::Corruption(
          path + ": segment is " + std::to_string(st.st_size) +
          " bytes, manifest records " + std::to_string(info.file_bytes) +
          " (truncated or replaced segment)");
    }
    BinaryGraphHeader h;
    SAGE_RETURN_IF_ERROR(
        PreadExact(f.fd, &h, sizeof(h), 0, path, "segment header"));
    SAGE_RETURN_IF_ERROR(
        ValidateSegmentHeader(h, info, mf, info.file_bytes, path));

    // The offsets section feeds both the global offset array and the
    // manifest's structural checksum.
    const uint64_t n_i = info.vertex_end - info.vertex_begin;
    const uint64_t m_i = info.edge_end - info.edge_begin;
    local.resize(n_i + 1);
    SAGE_RETURN_IF_ERROR(PreadExact(f.fd, local.data(),
                                    (n_i + 1) * sizeof(edge_offset),
                                    h.offsets_start, path, "offsets section"));
    uint64_t sum = Fnv1a64(&h, sizeof(h));
    sum = Fnv1a64(local.data(), local.size() * sizeof(edge_offset), sum);
    if (sum != info.checksum) {
      return Status::Corruption(path + ": segment checksum mismatch "
                                "(corrupt header or offsets section)");
    }
    if (local[0] != 0 || local[n_i] != m_i) {
      return Status::Corruption(path + ": shard-local offsets do not span "
                                "the manifest edge range");
    }
    for (uint64_t v = 0; v < n_i; ++v) {
      if (local[v] > local[v + 1]) {
        return Status::Corruption(path +
                                  ": offsets are not non-decreasing");
      }
    }
    for (uint64_t v = 0; v <= n_i; ++v) {
      storage->offsets_[info.vertex_begin + v] = info.edge_begin + local[v];
    }

    SAGE_RETURN_IF_ERROR(SpliceSection(
        region, info.edge_begin * sizeof(vertex_id),
        info.edge_end * sizeof(vertex_id), f.fd, h.neighbors_start, path,
        "neighbors section"));
    if (mf.weighted) {
      SAGE_RETURN_IF_ERROR(SpliceSection(
          region, weights_base + info.edge_begin * sizeof(weight_t),
          weights_base + info.edge_end * sizeof(weight_t), f.fd,
          h.weights_start, path, "weights section"));
    }
  }

  if (region != nullptr) {
    // Seal the assembled region read-only: from here on it behaves exactly
    // like the monolithic read-only mapping.
    if (::mprotect(region, total, PROT_READ) != 0) {
      return Status::IOError("mprotect failed on assembled mapping for " +
                             manifest_path + ": " + ErrnoString());
    }
  }
  storage->neighbors_ = {reinterpret_cast<const vertex_id*>(region),
                         static_cast<size_t>(m)};
  if (mf.weighted) {
    storage->weights_ = {
        reinterpret_cast<const weight_t*>(region + weights_base),
        static_cast<size_t>(m)};
  }

  // Same structure scan as the monolithic readers: no neighbor id may
  // index off the DRAM arrays algorithms allocate per vertex.
  {
    std::span<const vertex_id> neighbors = storage->neighbors_;
    constexpr size_t kChunk = 1 << 16;
    std::atomic<bool> bad_neighbor{false};
    parallel_for(0, (m + kChunk - 1) / kChunk, [&](size_t c) {
      const size_t lo = c * kChunk,
                   hi = std::min(static_cast<size_t>(m), lo + kChunk);
      vertex_id max_id = 0;
      for (size_t e = lo; e < hi; ++e) {
        max_id = std::max(max_id, neighbors[e]);
      }
      if (max_id >= n) bad_neighbor.store(true, std::memory_order_relaxed);
    });
    if (m > 0 && bad_neighbor.load(std::memory_order_relaxed)) {
      return Status::Corruption(manifest_path +
                                ": neighbor id out of range in a segment");
    }
  }
  return Graph(std::move(storage), mf.symmetric);
}

}  // namespace sage
