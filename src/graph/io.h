// Graph I/O: the Ligra text adjacency format (used by Ligra/GBBS/Sage for
// interchange), a whitespace edge-list format, and the binary .bsadj CSR
// image (binary_format.h), with content-based format detection over all
// three. Text readers parse-and-rebuild in DRAM; .bsadj images open via
// mmap as NVRAM-resident graphs (ReadGraphAuto dispatches transparently).
//
// AdjacencyGraph format:
//   AdjacencyGraph\n  <n>\n  <m>\n  <n offsets>\n  <m neighbor ids>\n
// WeightedAdjacencyGraph appends m integer weights.
//
// All readers surface recoverable failures as Status: IOError (with errno
// context, distinguishing device errors from short files) when the bytes
// cannot be read, Corruption when they can but do not parse.
#pragma once

#include <string>

#include "common/status.h"
#include "graph/binary_format.h"
#include "graph/graph.h"

namespace sage {

/// Reads a graph in (Weighted)AdjacencyGraph format. The stored graph is
/// taken as-is (no symmetrization); set `symmetric` if the file is known to
/// contain both directions of every edge.
Result<Graph> ReadAdjacencyGraph(const std::string& path, bool symmetric);

/// Writes `g` in (Weighted)AdjacencyGraph format.
Status WriteAdjacencyGraph(const Graph& g, const std::string& path);

/// Reads a whitespace/newline separated edge list "u v [w]" and builds a
/// graph on max-id+1 vertices, adding reverse edges when `symmetrize` (the
/// default). Lines starting with '#' or '%' are comments.
Result<Graph> ReadEdgeList(const std::string& path, bool weighted,
                           bool symmetrize = true);

/// On-disk graph formats the readers understand.
enum class GraphFileFormat : uint8_t {
  kUnknown = 0,
  kAdjacencyGraph,          // Ligra "AdjacencyGraph" header
  kWeightedAdjacencyGraph,  // Ligra "WeightedAdjacencyGraph" header
  kEdgeList,                // "u v" per line
  kWeightedEdgeList,        // "u v w" per line
  kBinaryCsr,               // .bsadj binary CSR image (binary_format.h)
};

/// Returns a short printable name for a GraphFileFormat.
const char* GraphFileFormatName(GraphFileFormat format);

/// Determines the format of the graph file at `path`. Content decides:
/// the .bsadj binary magic wins outright; then a leading
/// (Weighted)AdjacencyGraph header word; otherwise a leading numeric first
/// data line is sniffed as an edge list (2 columns, or 3 for weighted),
/// skipping '#'/'%' comment lines. Only when the content is inconclusive
/// (e.g. an empty file) does the extension break the tie (".bsadj" ->
/// binary CSR; ".adj" -> AdjacencyGraph; ".el"/".txt"/".edges" -> edge
/// list). IOError if the file cannot be read; kUnknown when neither
/// content nor extension identifies a format.
Result<GraphFileFormat> DetectGraphFormat(const std::string& path);

/// Loads a graph from `path` in whatever format DetectGraphFormat reports,
/// dispatching to ReadAdjacencyGraph, ReadEdgeList or MapBinaryGraph
/// (binary images open zero-copy as NVRAM-resident mappings). `symmetric`
/// flags adjacency files as already-symmetric and controls edge-list
/// symmetrization; binary images record their own symmetry and weights, so
/// both flags are ignored for them except that `force_weighted` against an
/// unweighted image is rejected as a contradiction. With `force_weighted`,
/// the caller asserts the file carries weights: edge lists are read with a
/// weight column even when the sniffer would classify them as unweighted
/// (e.g. several "u v w" triples packed on one line), and only a first
/// data line that is confidently two-column is rejected as a
/// contradiction. InvalidArgument when the format cannot be determined.
Result<Graph> ReadGraphAuto(const std::string& path, bool symmetric = true,
                            bool force_weighted = false);

}  // namespace sage
