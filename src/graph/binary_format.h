// Binary CSR on-disk graph format (".bsadj") and its mmap-backed loader:
// the semi-external input path of the paper's setup, where the graph image
// lives on NVRAM and is accessed in place, read-only, while mutable state
// stays in DRAM.
//
// File layout (all integers little-endian, written natively and verified
// via the endian tag; sections 64-byte aligned, zero-padded between):
//
//   [0,   64)  BinaryGraphHeader (magic, version, endian tag, n, m, flags,
//              type widths, section offsets)
//   [64,  ...) offsets   : (n+1) x uint64   CSR offsets, offsets[n] == m
//   [...,  ..) neighbors :  m    x uint32   neighbor ids, each < n
//   [...,  ..) weights   :  m    x uint32   only when kWeightedFlag is set
//
// Three entry points:
//   - WriteBinaryGraph: serialize any Graph to a .bsadj image;
//   - ReadBinaryGraph:  load a .bsadj into owned in-memory arrays;
//   - MapBinaryGraph:   mmap the file and construct the Graph zero-copy
//     over the mapping. The mapped Graph reports nvram_resident(), which
//     the engine plumbs into the PSAM cost model: graph reads are charged
//     as NVRAM under every policy (AllocPolicy::kGraphNvram made literal -
//     the mapped file *is* the NVRAM-resident graph).
//
// Both readers validate the header (magic / version / endianness / type
// widths / section bounds) and the structure (offset monotonicity, neighbor
// ids in range), returning Status::Corruption with context on malformed or
// truncated images rather than reading out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace sage {

/// Leading magic of a .bsadj file. The first byte is non-ASCII so text
/// format sniffers can never mistake a binary image for an edge list, and
/// the trailing CRLF catches line-ending mangling in transit (PNG-style).
inline constexpr uint8_t kBinaryGraphMagic[8] = {0x93, 'B', 'S', 'A',
                                                 'D',  'J', '\r', '\n'};

/// Current format version. Readers reject anything newer.
inline constexpr uint32_t kBinaryGraphVersion = 1;

/// Written natively as 0x01020304; a byte-swapped value on read identifies
/// an image produced on a machine of the opposite endianness.
inline constexpr uint32_t kBinaryGraphEndianTag = 0x01020304u;

/// Alignment of every section start (matches the cache-line / typical
/// NVRAM access granularity, and guarantees the mapped arrays are suitably
/// aligned for direct pointer access).
inline constexpr uint64_t kBinaryGraphSectionAlign = 64;

/// Header::flags bits. Readers reject an image with any other bit set.
inline constexpr uint32_t kBinaryGraphWeightedFlag = 1u << 0;
inline constexpr uint32_t kBinaryGraphSymmetricFlag = 1u << 1;

/// Fixed 64-byte header at the start of every .bsadj image.
struct BinaryGraphHeader {
  uint8_t magic[8];          // kBinaryGraphMagic
  uint32_t version;          // kBinaryGraphVersion
  uint32_t endian_tag;       // kBinaryGraphEndianTag, written natively
  uint64_t num_vertices;     // n
  uint64_t num_edges;        // m (directed edge slots; 2m if symmetrized)
  uint32_t flags;            // kBinaryGraph{Weighted,Symmetric}Flag
  uint32_t type_widths;      // (sizeof(edge_offset) << 16) |
                             // (sizeof(vertex_id) << 8) | sizeof(weight_t)
  uint64_t offsets_start;    // byte offset of the offsets section
  uint64_t neighbors_start;  // byte offset of the neighbors section
  uint64_t weights_start;    // byte offset of the weights section; 0 when
                             // the image is unweighted
};
static_assert(sizeof(BinaryGraphHeader) == 64,
              ".bsadj header must stay exactly one aligned section");

/// Expected type_widths for images written by this build.
inline constexpr uint32_t kBinaryGraphTypeWidths =
    (static_cast<uint32_t>(sizeof(edge_offset)) << 16) |
    (static_cast<uint32_t>(sizeof(vertex_id)) << 8) |
    static_cast<uint32_t>(sizeof(weight_t));

/// True when `buf` starts with the .bsadj magic (format sniffing).
inline bool HasBinaryGraphMagic(const void* buf, size_t len) {
  return len >= sizeof(kBinaryGraphMagic) &&
         std::memcmp(buf, kBinaryGraphMagic, sizeof(kBinaryGraphMagic)) == 0;
}

/// Serializes `g` as a .bsadj image at `path`. IOError (with errno context)
/// on any write failure.
Status WriteBinaryGraph(const Graph& g, const std::string& path);

/// Loads the .bsadj image at `path` into owned in-memory CSR arrays (the
/// DRAM-resident load, for baselines and comparison runs). Corruption on a
/// malformed image, IOError on read failure.
Result<Graph> ReadBinaryGraph(const std::string& path);

/// Maps the .bsadj image at `path` read-only and constructs the Graph
/// zero-copy over the mapping; the Graph (and its copies) keep the mapping
/// alive and report nvram_resident(). Corruption on a malformed image,
/// IOError on open/mmap failure.
Result<Graph> MapBinaryGraph(const std::string& path);

}  // namespace sage
