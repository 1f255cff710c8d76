#include "graph/binary_format.h"

#include "graph/delta.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/parallel.h"

namespace sage {

namespace {

std::string ErrnoString() { return std::strerror(errno); }

uint64_t AlignUp(uint64_t x) {
  return (x + kBinaryGraphSectionAlign - 1) & ~(kBinaryGraphSectionAlign - 1);
}

/// fwrite that surfaces IOError with errno context.
Status WriteExact(std::FILE* f, const void* data, size_t bytes,
                  const std::string& path) {
  if (bytes == 0) return Status::OK();
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IOError("short write on " + path + ": " + ErrnoString());
  }
  return Status::OK();
}

/// fread that distinguishes truncation (EOF) from a device error.
Status ReadExact(std::FILE* f, void* data, size_t bytes,
                 const std::string& path, const char* what) {
  size_t got = std::fread(data, 1, bytes, f);
  if (got == bytes) return Status::OK();
  if (std::ferror(f) != 0) {
    return Status::IOError("read error in " + path + " (" + what +
                           "): " + ErrnoString());
  }
  return Status::Corruption(path + ": truncated " + std::string(what) +
                            " (wanted " + std::to_string(bytes) + " bytes, " +
                            "got " + std::to_string(got) + ")");
}

uint32_t ByteSwap32(uint32_t x) { return __builtin_bswap32(x); }

/// Header validation shared by the copying reader and the mapper.
/// `file_size` bounds every section; all failures are Corruption with the
/// offending field named.
Status ValidateHeader(const BinaryGraphHeader& h, uint64_t file_size,
                      const std::string& path) {
  if (!HasBinaryGraphMagic(h.magic, sizeof(h.magic))) {
    return Status::Corruption(path + ": not a .bsadj image (bad magic)");
  }
  if (h.endian_tag != kBinaryGraphEndianTag) {
    if (h.endian_tag == ByteSwap32(kBinaryGraphEndianTag)) {
      return Status::Corruption(
          path + ": wrong endianness (image written on an opposite-endian "
                 "machine; re-convert it there or transcode via text)");
    }
    return Status::Corruption(path + ": bad endian tag");
  }
  if (h.version == 0 || h.version > kBinaryGraphVersion) {
    return Status::Corruption(path + ": unsupported .bsadj version " +
                              std::to_string(h.version) + " (this build reads "
                              "up to " + std::to_string(kBinaryGraphVersion) +
                              ")");
  }
  if (h.type_widths != kBinaryGraphTypeWidths) {
    char widths[16];
    std::snprintf(widths, sizeof(widths), "0x%06x", h.type_widths);
    return Status::Corruption(path + ": image type widths " + widths +
                              " do not match this build");
  }
  const uint32_t unknown_flags =
      h.flags & ~(kBinaryGraphWeightedFlag | kBinaryGraphSymmetricFlag);
  if (unknown_flags != 0) {
    char flags[16];
    std::snprintf(flags, sizeof(flags), "0x%08x", unknown_flags);
    return Status::Corruption(path + ": unknown header flags " + flags);
  }
  const bool weighted = (h.flags & kBinaryGraphWeightedFlag) != 0;
  const uint64_t n = h.num_vertices;
  const uint64_t m = h.num_edges;
  // Overflow-safe section bounds: sizes first, then placement.
  if (n + 1 < n || n + 1 > file_size / sizeof(edge_offset)) {
    return Status::Corruption(path + ": vertex count too large for file");
  }
  const uint64_t offsets_bytes = (n + 1) * sizeof(edge_offset);
  if (m > file_size / sizeof(vertex_id)) {
    return Status::Corruption(path + ": edge count too large for file");
  }
  const uint64_t neighbors_bytes = m * sizeof(vertex_id);
  const uint64_t weights_bytes = weighted ? m * sizeof(weight_t) : 0;
  auto section_ok = [&](uint64_t start, uint64_t bytes) {
    return start >= sizeof(BinaryGraphHeader) &&
           start % kBinaryGraphSectionAlign == 0 && start <= file_size &&
           bytes <= file_size - start;
  };
  if (!section_ok(h.offsets_start, offsets_bytes)) {
    return Status::Corruption(path + ": offsets section out of bounds "
                              "(truncated image?)");
  }
  if (!section_ok(h.neighbors_start, neighbors_bytes)) {
    return Status::Corruption(path + ": neighbors section out of bounds "
                              "(truncated image?)");
  }
  if (weighted && !section_ok(h.weights_start, weights_bytes)) {
    return Status::Corruption(path + ": weights section out of bounds "
                              "(truncated image?)");
  }
  if (!weighted && h.weights_start != 0) {
    return Status::Corruption(path + ": unweighted image carries a weights "
                              "section offset");
  }
  return Status::OK();
}

/// Structural validation of the CSR arrays themselves: offsets must start
/// at 0, end at m, and be non-decreasing; every neighbor id must be < n.
/// O(n + m), but written as chunked branch-free reductions so the scan
/// vectorizes and runs at memory bandwidth - this is the dominant cost of
/// an mmap open, and the price of never handing algorithms an index that
/// walks off their DRAM arrays.
Status ValidateStructure(std::span<const edge_offset> offsets,
                         std::span<const vertex_id> neighbors,
                         const std::string& path) {
  const size_t n = offsets.size() - 1;
  if (offsets[0] != 0) {
    return Status::Corruption(path + ": offsets[0] != 0");
  }
  if (offsets[n] != neighbors.size()) {
    return Status::Corruption(path + ": offsets[n] != m");
  }
  constexpr size_t kChunk = 1 << 16;
  std::atomic<bool> bad_offset{false};
  parallel_for(0, (n + kChunk - 1) / kChunk, [&](size_t c) {
    const size_t lo = c * kChunk, hi = std::min(n, lo + kChunk);
    bool ok = true;
    for (size_t v = lo; v < hi; ++v) ok &= offsets[v] <= offsets[v + 1];
    if (!ok) bad_offset.store(true, std::memory_order_relaxed);
  });
  if (bad_offset.load(std::memory_order_relaxed)) {
    return Status::Corruption(path + ": offsets are not non-decreasing");
  }
  const size_t m = neighbors.size();
  std::atomic<bool> bad_neighbor{false};
  parallel_for(0, (m + kChunk - 1) / kChunk, [&](size_t c) {
    const size_t lo = c * kChunk, hi = std::min(m, lo + kChunk);
    vertex_id max_id = 0;
    for (size_t e = lo; e < hi; ++e) max_id = std::max(max_id, neighbors[e]);
    if (max_id >= n) bad_neighbor.store(true, std::memory_order_relaxed);
  });
  if (bad_neighbor.load(std::memory_order_relaxed)) {
    return Status::Corruption(path + ": neighbor id out of range");
  }
  return Status::OK();
}

/// RAII fclose.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// GraphStorage borrowing the CSR arrays from a read-only mmap of a .bsadj
/// image. Owns the mapping; unmapped when the last Graph copy dies.
class MappedGraphStorage final : public GraphStorage {
 public:
  MappedGraphStorage(void* base, size_t bytes) : base_(base), bytes_(bytes) {}
  ~MappedGraphStorage() override { ::munmap(base_, bytes_); }
  MappedGraphStorage(const MappedGraphStorage&) = delete;
  MappedGraphStorage& operator=(const MappedGraphStorage&) = delete;

  std::span<const edge_offset> offsets() const override { return offsets_; }
  std::span<const vertex_id> neighbors() const override { return neighbors_; }
  std::span<const weight_t> weights() const override { return weights_; }
  bool nvram_resident() const override { return true; }

  // Page advice for the prefetch pipeline (graph/prefetch.h). Offsets are
  // bytes into the mapping; ranges are clamped and page-aligned here so
  // callers can pass raw section slices.
  bool SupportsPageAdvice() const override { return true; }
  uint64_t MappingBytes() const override { return bytes_; }
  uint64_t NeighborsByteOffset() const override { return neighbors_start_; }
  uint64_t WeightsByteOffset() const override { return weights_start_; }

  void AdviseWillNeed(uint64_t offset, uint64_t bytes) const override {
    auto [addr, len] = PageSpan(offset, bytes);
    // Advisory: a failed WILLNEED only costs the overlap; ignore it.
    if (len > 0) (void)::madvise(addr, len, MADV_WILLNEED);
  }

  void AdviseDontNeed(uint64_t offset, uint64_t bytes) const override {
    auto [addr, len] = PageSpan(offset, bytes);
    // Read-only file-backed mapping: dropped pages re-fault from the page
    // cache or the file, so DONTNEED is always safe here.
    if (len > 0) (void)::madvise(addr, len, MADV_DONTNEED);
  }

  uint64_t CountResidentPages(uint64_t offset, uint64_t bytes) const override {
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

  const uint8_t* data() const { return static_cast<const uint8_t*>(base_); }

  /// Set after header validation; sections are 64-byte aligned within the
  /// page-aligned mapping, so the reinterpret_casts are properly aligned.
  void SetSections(const BinaryGraphHeader& h) {
    offsets_ = {reinterpret_cast<const edge_offset*>(data() + h.offsets_start),
                static_cast<size_t>(h.num_vertices + 1)};
    neighbors_ = {
        reinterpret_cast<const vertex_id*>(data() + h.neighbors_start),
        static_cast<size_t>(h.num_edges)};
    neighbors_start_ = h.neighbors_start;
    if ((h.flags & kBinaryGraphWeightedFlag) != 0) {
      weights_ = {reinterpret_cast<const weight_t*>(data() + h.weights_start),
                  static_cast<size_t>(h.num_edges)};
      weights_start_ = h.weights_start;
    }
  }

 private:
  static uint64_t PageBytes() {
    static const uint64_t page =
        static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }

  /// Clamps [offset, offset+bytes) to the mapping and aligns it outward to
  /// page boundaries, as madvise/mincore require.
  std::pair<void*, size_t> PageSpan(uint64_t offset, uint64_t bytes) const {
    if (offset >= bytes_) return {nullptr, 0};
    const uint64_t page = PageBytes();
    uint64_t end = std::min<uint64_t>(bytes_, offset + bytes);
    uint64_t begin = offset / page * page;
    return {static_cast<uint8_t*>(base_) + begin,
            static_cast<size_t>(end - begin)};
  }

  void* base_;
  size_t bytes_;
  uint64_t neighbors_start_ = 0;
  uint64_t weights_start_ = 0;
  std::span<const edge_offset> offsets_;
  std::span<const vertex_id> neighbors_;
  std::span<const weight_t> weights_;
};

}  // namespace

Status WriteBinaryGraph(const Graph& g, const std::string& path) {
  // The sections below serialize the raw CSR spans, which for an overlay
  // graph are the base image only: materialize the merged view first.
  if (g.has_overlay()) return WriteBinaryGraph(FlattenOverlay(g), path);
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  BinaryGraphHeader h{};
  std::memcpy(h.magic, kBinaryGraphMagic, sizeof(h.magic));
  h.version = kBinaryGraphVersion;
  h.endian_tag = kBinaryGraphEndianTag;
  h.num_vertices = n;
  h.num_edges = m;
  h.flags = (g.weighted() ? kBinaryGraphWeightedFlag : 0) |
            (g.symmetric() ? kBinaryGraphSymmetricFlag : 0);
  h.type_widths = kBinaryGraphTypeWidths;
  h.offsets_start = AlignUp(sizeof(BinaryGraphHeader));
  h.neighbors_start = AlignUp(h.offsets_start + (n + 1) * sizeof(edge_offset));
  h.weights_start =
      g.weighted() ? AlignUp(h.neighbors_start + m * sizeof(vertex_id)) : 0;

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing: " +
                           ErrnoString());
  }
  static constexpr uint8_t kPad[kBinaryGraphSectionAlign] = {};
  uint64_t pos = 0;
  auto emit = [&](const void* data, uint64_t bytes) -> Status {
    SAGE_RETURN_IF_ERROR(WriteExact(f.get(), data, bytes, path));
    pos += bytes;
    return Status::OK();
  };
  auto pad_to = [&](uint64_t target) -> Status {
    SAGE_DCHECK(target >= pos && target - pos < kBinaryGraphSectionAlign);
    return emit(kPad, target - pos);
  };
  SAGE_RETURN_IF_ERROR(emit(&h, sizeof(h)));
  SAGE_RETURN_IF_ERROR(pad_to(h.offsets_start));
  SAGE_RETURN_IF_ERROR(emit(g.raw_offsets().data(),
                            (n + 1) * sizeof(edge_offset)));
  SAGE_RETURN_IF_ERROR(pad_to(h.neighbors_start));
  SAGE_RETURN_IF_ERROR(emit(g.raw_neighbors().data(), m * sizeof(vertex_id)));
  if (g.weighted()) {
    SAGE_RETURN_IF_ERROR(pad_to(h.weights_start));
    SAGE_RETURN_IF_ERROR(emit(g.raw_weights().data(), m * sizeof(weight_t)));
  }
  // fclose flushes buffered data; a full disk surfaces here, not silently.
  std::FILE* raw = f.release();
  if (std::fclose(raw) != 0) {
    return Status::IOError("close failed on " + path + ": " + ErrnoString());
  }
  return Status::OK();
}

Result<Graph> ReadBinaryGraph(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " + ErrnoString());
  }
  struct stat st;
  if (::fstat(::fileno(f.get()), &st) != 0) {
    return Status::IOError("cannot stat " + path + ": " + ErrnoString());
  }
  // A directory or FIFO opens fine but is not a graph image; name the
  // condition instead of surfacing a downstream EISDIR/short-read.
  if (!S_ISREG(st.st_mode)) {
    return Status::IOError("cannot read " + path + ": not a regular file");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  BinaryGraphHeader h;
  SAGE_RETURN_IF_ERROR(ReadExact(f.get(), &h, sizeof(h), path, "header"));
  SAGE_RETURN_IF_ERROR(ValidateHeader(h, file_size, path));

  const uint64_t n = h.num_vertices, m = h.num_edges;
  std::vector<edge_offset> offsets(n + 1);
  std::vector<vertex_id> neighbors(m);
  std::vector<weight_t> weights;
  auto read_section = [&](uint64_t start, void* dst, uint64_t bytes,
                          const char* what) -> Status {
    if (std::fseek(f.get(), static_cast<long>(start), SEEK_SET) != 0) {
      return Status::IOError("seek failed in " + path + ": " + ErrnoString());
    }
    return ReadExact(f.get(), dst, bytes, path, what);
  };
  SAGE_RETURN_IF_ERROR(read_section(h.offsets_start, offsets.data(),
                                    (n + 1) * sizeof(edge_offset),
                                    "offsets section"));
  SAGE_RETURN_IF_ERROR(read_section(h.neighbors_start, neighbors.data(),
                                    m * sizeof(vertex_id),
                                    "neighbors section"));
  if ((h.flags & kBinaryGraphWeightedFlag) != 0) {
    weights.resize(m);
    SAGE_RETURN_IF_ERROR(read_section(h.weights_start, weights.data(),
                                      m * sizeof(weight_t),
                                      "weights section"));
  }
  SAGE_RETURN_IF_ERROR(ValidateStructure(offsets, neighbors, path));
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               (h.flags & kBinaryGraphSymmetricFlag) != 0);
}

Result<Graph> MapBinaryGraph(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " + ErrnoString());
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IOError("cannot stat " + path + ": " + ErrnoString());
    ::close(fd);
    return s;
  }
  // Same regular-file guard as ReadBinaryGraph: mapping a directory or
  // FIFO would otherwise surface a raw "mmap failed: ENODEV".
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("cannot map " + path + ": not a regular file");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(BinaryGraphHeader)) {
    ::close(fd);
    return Status::Corruption(path + ": truncated header (file is " +
                              std::to_string(file_size) + " bytes)");
  }
  void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping pins the file contents; the descriptor is no longer needed.
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed on " + path + ": " + ErrnoString());
  }
  auto storage = std::make_shared<MappedGraphStorage>(base, file_size);

  BinaryGraphHeader h;
  std::memcpy(&h, storage->data(), sizeof(h));
  SAGE_RETURN_IF_ERROR(ValidateHeader(h, file_size, path));
  storage->SetSections(h);
  SAGE_RETURN_IF_ERROR(
      ValidateStructure(storage->offsets(), storage->neighbors(), path));
  return Graph(std::move(storage), (h.flags & kBinaryGraphSymmetricFlag) != 0);
}

}  // namespace sage
