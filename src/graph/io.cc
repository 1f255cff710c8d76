#include "graph/io.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "graph/builder.h"
#include "graph/delta.h"

namespace sage {

namespace {

/// Reads a whole file into a string. A short fread is only accepted as a
/// small file when the stream reports clean EOF; ferror (bad media, EISDIR,
/// NFS hiccups) surfaces as IOError with the errno context, so callers can
/// tell a truncated graph from an unreadable one.
Result<std::string> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  // A directory opens fine but reports a nonsense seekable size; catch it
  // before sizing the buffer off ftell.
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IOError("cannot read " + path +
                           ": not a regular file");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    Status s = Status::IOError("seek failed on " + path + ": " +
                               std::strerror(errno));
    std::fclose(f);
    return s;
  }
  long size = std::ftell(f);
  if (size < 0) {
    Status s = Status::IOError("cannot size " + path + ": " +
                               std::strerror(errno));
    std::fclose(f);
    return s;
  }
  std::fseek(f, 0, SEEK_SET);
  std::string data(static_cast<size_t>(size), '\0');
  size_t got = std::fread(data.data(), 1, data.size(), f);
  const bool read_error = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read error on " + path + ": " +
                           std::strerror(read_errno));
  }
  if (got != data.size()) {
    // Clean EOF before the sized length: the file shrank between ftell and
    // fread (concurrent truncation), not an IO fault.
    return Status::IOError("short read on " + path + " (got " +
                           std::to_string(got) + " of " +
                           std::to_string(data.size()) +
                           " bytes; file truncated mid-read?)");
  }
  return data;
}

/// Incremental integer tokenizer over a text buffer.
class Tokens {
 public:
  explicit Tokens(const std::string& data) : data_(data) {}

  /// Skips to the next token; returns false at end of input.
  bool Next(uint64_t* out) {
    while (pos_ < data_.size() &&
           !std::isdigit(static_cast<unsigned char>(data_[pos_]))) {
      // Skip comment lines entirely.
      if (data_[pos_] == '#' || data_[pos_] == '%') {
        while (pos_ < data_.size() && data_[pos_] != '\n') ++pos_;
      } else {
        ++pos_;
      }
    }
    if (pos_ >= data_.size()) return false;
    uint64_t v = 0;
    while (pos_ < data_.size() &&
           std::isdigit(static_cast<unsigned char>(data_[pos_]))) {
      v = v * 10 + static_cast<uint64_t>(data_[pos_] - '0');
      ++pos_;
    }
    *out = v;
    return true;
  }

  /// Reads the header word (letters) at the current position.
  std::string Word() {
    while (pos_ < data_.size() &&
           std::isspace(static_cast<unsigned char>(data_[pos_]))) {
      ++pos_;
    }
    size_t start = pos_;
    while (pos_ < data_.size() &&
           std::isalpha(static_cast<unsigned char>(data_[pos_]))) {
      ++pos_;
    }
    return data_.substr(start, pos_ - start);
  }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

Result<Graph> ReadAdjacencyGraph(const std::string& path, bool symmetric) {
  auto data = Slurp(path);
  if (!data.ok()) return data.status();
  Tokens toks(data.ValueOrDie());
  std::string header = toks.Word();
  bool weighted;
  if (header == "AdjacencyGraph") {
    weighted = false;
  } else if (header == "WeightedAdjacencyGraph") {
    weighted = true;
  } else {
    return Status::Corruption(path + ": unknown header '" + header + "'");
  }
  uint64_t n = 0, m = 0;
  if (!toks.Next(&n) || !toks.Next(&m)) {
    return Status::Corruption(path + ": missing n/m");
  }
  std::vector<edge_offset> offsets(n + 1);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t off;
    if (!toks.Next(&off)) return Status::Corruption(path + ": short offsets");
    if (off > m) return Status::Corruption(path + ": offset out of range");
    offsets[i] = off;
  }
  offsets[n] = m;
  std::vector<vertex_id> neighbors(m);
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t v;
    if (!toks.Next(&v)) return Status::Corruption(path + ": short edges");
    if (v >= n) return Status::Corruption(path + ": neighbor id out of range");
    neighbors[i] = static_cast<vertex_id>(v);
  }
  std::vector<weight_t> weights;
  if (weighted) {
    weights.resize(m);
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t w;
      if (!toks.Next(&w)) return Status::Corruption(path + ": short weights");
      weights[i] = static_cast<weight_t>(w);
    }
  }
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               symmetric);
}

Status WriteAdjacencyGraph(const Graph& g, const std::string& path) {
  // The raw spans below are the base image only for overlay graphs:
  // materialize the merged view first.
  if (g.has_overlay()) return WriteAdjacencyGraph(FlattenOverlay(g), path);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const auto& offsets = g.raw_offsets();
  const auto& neighbors = g.raw_neighbors();
  const auto& weights = g.raw_weights();
  std::fprintf(f, "%s\n", g.weighted() ? "WeightedAdjacencyGraph"
                                       : "AdjacencyGraph");
  std::fprintf(f, "%u\n%llu\n", g.num_vertices(),
               static_cast<unsigned long long>(g.num_edges()));
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(offsets[v]));
  }
  for (edge_offset e = 0; e < g.num_edges(); ++e) {
    std::fprintf(f, "%u\n", neighbors[e]);
  }
  if (g.weighted()) {
    for (edge_offset e = 0; e < g.num_edges(); ++e) {
      std::fprintf(f, "%u\n", weights[e]);
    }
  }
  std::fclose(f);
  return Status::OK();
}

const char* GraphFileFormatName(GraphFileFormat format) {
  switch (format) {
    case GraphFileFormat::kUnknown:
      return "unknown";
    case GraphFileFormat::kAdjacencyGraph:
      return "AdjacencyGraph";
    case GraphFileFormat::kWeightedAdjacencyGraph:
      return "WeightedAdjacencyGraph";
    case GraphFileFormat::kEdgeList:
      return "edge-list";
    case GraphFileFormat::kWeightedEdgeList:
      return "weighted-edge-list";
    case GraphFileFormat::kBinaryCsr:
      return "binary-csr";
  }
  return "unknown";
}

namespace {

/// Extension-based fallback, used only when content sniffing is
/// inconclusive.
GraphFileFormat FormatFromExtension(const std::string& path) {
  if (path.ends_with(".bsadj")) return GraphFileFormat::kBinaryCsr;
  if (path.ends_with(".adj")) return GraphFileFormat::kAdjacencyGraph;
  if (path.ends_with(".wadj")) {
    return GraphFileFormat::kWeightedAdjacencyGraph;
  }
  if (path.ends_with(".el") || path.ends_with(".txt") ||
      path.ends_with(".edges")) {
    return GraphFileFormat::kEdgeList;
  }
  return GraphFileFormat::kUnknown;
}

/// DetectGraphFormat plus the raw sniffing evidence, for callers that need
/// to second-guess the heuristic (ReadGraphAuto's force_weighted).
struct SniffResult {
  GraphFileFormat format = GraphFileFormat::kUnknown;
  /// Integer columns counted on the first data line (0 if none).
  int first_line_columns = 0;
  /// The first data line extended past the sniff window, so
  /// first_line_columns is a lower bound, not a trustworthy count.
  bool line_truncated = false;
};

Result<SniffResult> SniffGraphFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  char buf[4096];
  size_t got = std::fread(buf, 1, sizeof(buf), f);
  // A short read is only a small file when the stream hit clean EOF; an
  // ferror (EISDIR, bad media) must not be sniffed as an empty graph.
  const bool read_error = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read error on " + path + ": " +
                           std::strerror(read_errno));
  }
  std::string head(buf, got);
  SniffResult result;

  // The binary magic starts with a non-ASCII byte, so it can never collide
  // with the text paths below; check it first.
  if (HasBinaryGraphMagic(head.data(), head.size())) {
    result.format = GraphFileFormat::kBinaryCsr;
    return result;
  }

  // Skip leading whitespace and '#'/'%' comment lines.
  size_t pos = 0;
  while (pos < head.size()) {
    char c = head[pos];
    if (c == '#' || c == '%') {
      while (pos < head.size() && head[pos] != '\n') ++pos;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
    } else {
      break;
    }
  }

  if (pos < head.size() &&
      std::isalpha(static_cast<unsigned char>(head[pos]))) {
    size_t start = pos;
    while (pos < head.size() &&
           std::isalpha(static_cast<unsigned char>(head[pos]))) {
      ++pos;
    }
    std::string word = head.substr(start, pos - start);
    if (word == "AdjacencyGraph") {
      result.format = GraphFileFormat::kAdjacencyGraph;
    } else if (word == "WeightedAdjacencyGraph") {
      result.format = GraphFileFormat::kWeightedAdjacencyGraph;
    }
    // Textual content that is not a known header: the content contradicts
    // any extension hint, so report unknown rather than guessing.
    return result;
  }

  if (pos < head.size() &&
      std::isdigit(static_cast<unsigned char>(head[pos]))) {
    // Numeric first data line: count its integer columns. Two columns is
    // an edge list, three a weighted edge list; an even count tolerates
    // several "u v" pairs on one line (the readers are line-agnostic).
    size_t line_end = head.find('\n', pos);
    if (line_end == std::string::npos) {
      line_end = head.size();
      result.line_truncated = got == sizeof(buf);
    }
    int columns = 0;
    bool numeric = true;
    while (pos < line_end) {
      char c = head[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++columns;
        while (pos < line_end &&
               std::isdigit(static_cast<unsigned char>(head[pos]))) {
          ++pos;
        }
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos;
      } else {
        numeric = false;
        break;
      }
    }
    if (numeric && columns > 0) {
      result.first_line_columns = columns;
      // A first line longer than the sniff window yields a partial column
      // count; classify it as a plain edge list (the common layout for
      // many-tokens-per-line files) rather than trusting the count.
      if (result.line_truncated) {
        result.format = GraphFileFormat::kEdgeList;
      } else if (columns == 3 ||
                 (columns % 3 == 0 && columns % 2 != 0)) {
        result.format = GraphFileFormat::kWeightedEdgeList;
      } else if (columns % 2 == 0) {
        result.format = GraphFileFormat::kEdgeList;
      }
    }
    // Numeric content the column rules can't classify (e.g. a lone count
    // header or five columns) is inconclusive: let the extension break
    // the tie, per the DetectGraphFormat contract.
    if (result.format == GraphFileFormat::kUnknown) {
      result.format = FormatFromExtension(path);
    }
    return result;
  }

  // Inconclusive content (empty or comment-only file): fall back to the
  // extension.
  result.format = FormatFromExtension(path);
  return result;
}

}  // namespace

Result<GraphFileFormat> DetectGraphFormat(const std::string& path) {
  auto sniff = SniffGraphFormat(path);
  if (!sniff.ok()) return sniff.status();
  return sniff.ValueOrDie().format;
}

Result<Graph> ReadGraphAuto(const std::string& path, bool symmetric,
                            bool force_weighted) {
  auto sniffed = SniffGraphFormat(path);
  if (!sniffed.ok()) return sniffed.status();
  const SniffResult& sniff = sniffed.ValueOrDie();
  switch (sniff.format) {
    case GraphFileFormat::kBinaryCsr: {
      // The image records its own weights and symmetry; open it zero-copy
      // as the NVRAM-resident graph.
      auto mapped = MapBinaryGraph(path);
      if (!mapped.ok()) return mapped.status();
      if (force_weighted && !mapped.ValueOrDie().weighted()) {
        return Status::InvalidArgument(
            path + ": weighted load requested but the binary image is "
                   "unweighted");
      }
      return mapped;
    }
    case GraphFileFormat::kAdjacencyGraph:
    case GraphFileFormat::kWeightedAdjacencyGraph:
      // Adjacency headers declare weightedness themselves.
      return ReadAdjacencyGraph(path, symmetric);
    case GraphFileFormat::kEdgeList:
      if (force_weighted) {
        // Honor the caller's assertion unless the first data line is a
        // complete, genuinely two-column record — triples can't hide in
        // that, so it is a contradiction rather than an override.
        if (!sniff.line_truncated && sniff.first_line_columns == 2) {
          return Status::InvalidArgument(
              path + ": weighted load requested but the first data line "
                     "has only two columns");
        }
        return ReadEdgeList(path, /*weighted=*/true, symmetric);
      }
      return ReadEdgeList(path, /*weighted=*/false, symmetric);
    case GraphFileFormat::kWeightedEdgeList:
      return ReadEdgeList(path, /*weighted=*/true, symmetric);
    case GraphFileFormat::kUnknown:
      break;
  }
  return Status::InvalidArgument(
      path + ": cannot determine graph format (expected an AdjacencyGraph/"
             "WeightedAdjacencyGraph header or a numeric edge list)");
}

Result<Graph> ReadEdgeList(const std::string& path, bool weighted,
                           bool symmetrize) {
  auto data = Slurp(path);
  if (!data.ok()) return data.status();
  Tokens toks(data.ValueOrDie());
  std::vector<WeightedEdge> edges;
  uint64_t max_id = 0;
  for (;;) {
    uint64_t u, v, w = 1;
    if (!toks.Next(&u)) break;
    if (!toks.Next(&v)) {
      return Status::Corruption(path + ": odd number of endpoints");
    }
    if (weighted && !toks.Next(&w)) {
      return Status::Corruption(path + ": missing weight");
    }
    max_id = std::max({max_id, u, v});
    edges.push_back({static_cast<vertex_id>(u), static_cast<vertex_id>(v),
                     static_cast<weight_t>(w)});
  }
  if (edges.empty()) return Status::Corruption(path + ": no edges");
  BuildOptions opts;
  opts.keep_weights = weighted;
  opts.symmetrize = symmetrize;
  return GraphBuilder::Build(static_cast<vertex_id>(max_id + 1),
                             std::move(edges), opts);
}

}  // namespace sage
