// Tests for graph I/O: AdjacencyGraph round trips, weighted graphs,
// edge lists, and corruption handling.
#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace sage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

TEST(AdjacencyGraphIO, RoundTripsUnweighted) {
  Graph g = RmatGraph(8, 3000, 21);
  std::string path = TempPath("roundtrip.adj");
  ASSERT_TRUE(WriteAdjacencyGraph(g, path).ok());
  auto result = ReadAdjacencyGraph(path, /*symmetric=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& h = result.ValueOrDie();
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(std::ranges::equal(h.raw_offsets(), g.raw_offsets()));
  EXPECT_TRUE(std::ranges::equal(h.raw_neighbors(), g.raw_neighbors()));
  EXPECT_TRUE(h.symmetric());
}

TEST(AdjacencyGraphIO, RoundTripsWeighted) {
  Graph g = AddRandomWeights(UniformRandomGraph(200, 1500, 3), 5);
  std::string path = TempPath("roundtrip_w.adj");
  ASSERT_TRUE(WriteAdjacencyGraph(g, path).ok());
  auto result = ReadAdjacencyGraph(path, true);
  ASSERT_TRUE(result.ok());
  const Graph& h = result.ValueOrDie();
  EXPECT_TRUE(h.weighted());
  EXPECT_TRUE(std::ranges::equal(h.raw_weights(), g.raw_weights()));
}

TEST(AdjacencyGraphIO, ParsesHandWrittenFile) {
  // 3-vertex path 0-1-2 stored symmetrically.
  std::string path = TempPath("hand.adj");
  WriteFile(path, "AdjacencyGraph\n3\n4\n0\n1\n3\n1\n0\n2\n1\n");
  auto result = ReadAdjacencyGraph(path, true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& g = result.ValueOrDie();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree_uncharged(1), 2u);
}

TEST(AdjacencyGraphIO, RejectsMissingFile) {
  auto result = ReadAdjacencyGraph(TempPath("nonexistent.adj"), true);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(AdjacencyGraphIO, RejectsBadHeader) {
  std::string path = TempPath("bad_header.adj");
  WriteFile(path, "NotAGraph\n1\n0\n0\n");
  auto result = ReadAdjacencyGraph(path, true);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(AdjacencyGraphIO, RejectsTruncatedEdges) {
  std::string path = TempPath("truncated.adj");
  WriteFile(path, "AdjacencyGraph\n3\n4\n0\n1\n3\n1\n0\n");
  auto result = ReadAdjacencyGraph(path, true);
  EXPECT_FALSE(result.ok());
}

TEST(AdjacencyGraphIO, RejectsOutOfRangeNeighbor) {
  std::string path = TempPath("oob.adj");
  WriteFile(path, "AdjacencyGraph\n2\n1\n0\n1\n9\n");
  auto result = ReadAdjacencyGraph(path, true);
  EXPECT_FALSE(result.ok());
}

TEST(EdgeListIO, ParsesAndSymmetrizes) {
  std::string path = TempPath("edges.txt");
  WriteFile(path, "# comment line\n0 1\n1 2\n% another comment\n2 3\n");
  auto result = ReadEdgeList(path, /*weighted=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& g = result.ValueOrDie();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.symmetric());
}

TEST(EdgeListIO, ParsesWeights) {
  std::string path = TempPath("wedges.txt");
  WriteFile(path, "0 1 5\n1 2 7\n");
  auto result = ReadEdgeList(path, /*weighted=*/true);
  ASSERT_TRUE(result.ok());
  const Graph& g = result.ValueOrDie();
  ASSERT_TRUE(g.weighted());
  // Edge 0->1 has weight 5.
  bool found = false;
  g.MapNeighbors(0, [&](vertex_id, vertex_id v, weight_t w) {
    if (v == 1) {
      EXPECT_EQ(w, 5u);
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST(EdgeListIO, RejectsEmptyFile) {
  std::string path = TempPath("empty.txt");
  WriteFile(path, "# nothing\n");
  auto result = ReadEdgeList(path, false);
  EXPECT_FALSE(result.ok());
}

TEST(EdgeListIO, HonorsSymmetrizeFlag) {
  std::string path = TempPath("directed.txt");
  WriteFile(path, "0 1\n1 2\n");
  auto directed = ReadEdgeList(path, /*weighted=*/false,
                               /*symmetrize=*/false);
  ASSERT_TRUE(directed.ok());
  EXPECT_FALSE(directed.ValueOrDie().symmetric());
  EXPECT_EQ(directed.ValueOrDie().num_edges(), 2u);

  auto via_auto = ReadGraphAuto(path, /*symmetric=*/false);
  ASSERT_TRUE(via_auto.ok());
  EXPECT_FALSE(via_auto.ValueOrDie().symmetric());
  EXPECT_EQ(via_auto.ValueOrDie().num_edges(), 2u);
}

TEST(FormatDetection, SniffsAdjacencyHeaderRegardlessOfExtension) {
  std::string path = TempPath("headerful.weird");
  WriteFile(path, "AdjacencyGraph\n3\n4\n0\n1\n3\n1\n0\n2\n1\n");
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kAdjacencyGraph);
}

TEST(FormatDetection, SniffsWeightedAdjacencyHeader) {
  std::string path = TempPath("wheader.bin");
  WriteFile(path, "WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n5\n5\n");
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kWeightedAdjacencyGraph);
}

TEST(FormatDetection, SniffsEdgeListColumns) {
  std::string two = TempPath("pairs.dat");
  WriteFile(two, "# comment\n% more\n0 1\n1 2\n");
  auto fmt2 = DetectGraphFormat(two);
  ASSERT_TRUE(fmt2.ok());
  EXPECT_EQ(fmt2.ValueOrDie(), GraphFileFormat::kEdgeList);

  std::string three = TempPath("triples.dat");
  WriteFile(three, "0 1 5\n1 2 7\n");
  auto fmt3 = DetectGraphFormat(three);
  ASSERT_TRUE(fmt3.ok());
  EXPECT_EQ(fmt3.ValueOrDie(), GraphFileFormat::kWeightedEdgeList);
}

TEST(FormatDetection, TruncatedLongFirstLineFallsBackToEdgeList) {
  // Many "u v" pairs on one line, longer than the 4 KB sniff window: the
  // partial column count must not be trusted (it could look weighted).
  std::string line;
  for (int i = 0; i < 1500; ++i) {
    line += std::to_string(i) + " " + std::to_string(i + 1) + " ";
  }
  line += "\n";
  ASSERT_GT(line.size(), 4096u);
  std::string path = TempPath("longline.dat");
  WriteFile(path, line);
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kEdgeList);
  auto graph = ReadGraphAuto(path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.ValueOrDie().num_vertices(), 1501u);
}

TEST(FormatDetection, InconclusiveColumnCountFallsBackToExtension) {
  // A lone count header defeats the column rules; the extension decides.
  std::string el = TempPath("counted.el");
  WriteFile(el, "5\n0 1\n1 2\n");
  auto fmt = DetectGraphFormat(el);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kEdgeList);

  std::string bare = TempPath("counted.xyz");
  WriteFile(bare, "5\n0 1\n1 2\n");
  auto fmt_bare = DetectGraphFormat(bare);
  ASSERT_TRUE(fmt_bare.ok());
  EXPECT_EQ(fmt_bare.ValueOrDie(), GraphFileFormat::kUnknown);
}

TEST(FormatDetection, UnknownContentIsUnknownEvenWithAdjExtension) {
  std::string path = TempPath("garbage.adj");
  WriteFile(path, "ThisIsNotAGraph\nhello\n");
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kUnknown);
}

TEST(FormatDetection, ExtensionBreaksTieForEmptyFiles) {
  std::string adj = TempPath("commentonly.adj");
  WriteFile(adj, "# just a comment\n");
  auto fmt = DetectGraphFormat(adj);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kAdjacencyGraph);

  std::string txt = TempPath("commentonly.txt");
  WriteFile(txt, "% nothing yet\n");
  auto fmt_txt = DetectGraphFormat(txt);
  ASSERT_TRUE(fmt_txt.ok());
  EXPECT_EQ(fmt_txt.ValueOrDie(), GraphFileFormat::kEdgeList);

  std::string none = TempPath("commentonly.xyz");
  WriteFile(none, "# ???\n");
  auto fmt_none = DetectGraphFormat(none);
  ASSERT_TRUE(fmt_none.ok());
  EXPECT_EQ(fmt_none.ValueOrDie(), GraphFileFormat::kUnknown);
}

TEST(FormatDetection, MissingFileIsIOError) {
  auto fmt = DetectGraphFormat(TempPath("does-not-exist.adj"));
  EXPECT_FALSE(fmt.ok());
  EXPECT_EQ(fmt.status().code(), StatusCode::kIOError);
}

TEST(FormatDetection, BinaryMagicWinsOverTextSniffing) {
  // A full .bsadj image sniffs as binary CSR even with a text extension.
  Graph g = RmatGraph(6, 500, 3);
  std::string path = TempPath("disguised.txt");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kBinaryCsr);

  // And the .bsadj extension breaks the tie for an empty file.
  std::string empty = TempPath("detect_empty.bsadj");
  WriteFile(empty, "");
  auto fmt_ext = DetectGraphFormat(empty);
  ASSERT_TRUE(fmt_ext.ok());
  EXPECT_EQ(fmt_ext.ValueOrDie(), GraphFileFormat::kBinaryCsr);
}

// The retired multi-shard manifest header is text like any other, and no
// reader knows it.
constexpr char kRetiredManifest[] =
    "BSADJX 1\nn 4 m 6 weighted 0 symmetric 1 shards 1\n"
    "shard 0 4 0 6 0 64 g.shard0.bsadj\n";

TEST(FormatDetection, RetiredManifestHeaderIsUnknown) {
  std::string path = TempPath("retired_manifest.idx");
  WriteFile(path, kRetiredManifest);
  auto fmt = DetectGraphFormat(path);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kUnknown);
}

TEST(IOErrorPaths, UnreadableInputIsIOErrorNotShortFile) {
  // A directory opens but cannot be fread (EISDIR): every reader must
  // report IOError with the errno context, never treat the failed read as
  // a small or empty file.
  std::string dir = ::testing::TempDir();
  auto slurped = ReadAdjacencyGraph(dir, true);
  ASSERT_FALSE(slurped.ok());
  EXPECT_EQ(slurped.status().code(), StatusCode::kIOError);

  auto edges = ReadEdgeList(dir, false);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kIOError);

  auto sniffed = DetectGraphFormat(dir);
  ASSERT_FALSE(sniffed.ok());
  EXPECT_EQ(sniffed.status().code(), StatusCode::kIOError);
}

TEST(ReadGraphAuto, LoadsEveryDetectableFormat) {
  // Adjacency file written by the library itself.
  Graph g = RmatGraph(8, 2000, 11);
  std::string adj = TempPath("auto.adj");
  ASSERT_TRUE(WriteAdjacencyGraph(g, adj).ok());
  auto from_adj = ReadGraphAuto(adj);
  ASSERT_TRUE(from_adj.ok()) << from_adj.status().ToString();
  EXPECT_EQ(from_adj.ValueOrDie().num_edges(), g.num_edges());

  // Unweighted edge list: weights absent after auto-detection.
  std::string el = TempPath("auto_edges.txt");
  WriteFile(el, "0 1\n1 2\n2 0\n");
  auto from_el = ReadGraphAuto(el);
  ASSERT_TRUE(from_el.ok()) << from_el.status().ToString();
  EXPECT_FALSE(from_el.ValueOrDie().weighted());
  EXPECT_EQ(from_el.ValueOrDie().num_vertices(), 3u);

  // Weighted edge list: the third column becomes weights.
  std::string wel = TempPath("auto_wedges.txt");
  WriteFile(wel, "0 1 5\n1 2 7\n");
  auto from_wel = ReadGraphAuto(wel);
  ASSERT_TRUE(from_wel.ok()) << from_wel.status().ToString();
  EXPECT_TRUE(from_wel.ValueOrDie().weighted());

  // Undetectable content is an InvalidArgument, not a crash.
  std::string bad = TempPath("auto_bad.xyz");
  WriteFile(bad, "?!\n");
  auto from_bad = ReadGraphAuto(bad);
  ASSERT_FALSE(from_bad.ok());
  EXPECT_EQ(from_bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReadGraphAuto, ForceWeightedOverridesColumnSniffing) {
  // Two "u v w" triples on one line: 6 columns sniff as an unweighted
  // edge list, but the caller knows better.
  std::string packed = TempPath("packed_triples.txt");
  WriteFile(packed, "0 1 5 1 2 7\n");
  auto forced = ReadGraphAuto(packed, /*symmetric=*/true,
                              /*force_weighted=*/true);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_TRUE(forced.ValueOrDie().weighted());
  EXPECT_EQ(forced.ValueOrDie().num_vertices(), 3u);

  // A complete, genuinely two-column first line cannot hide triples: the
  // override is a contradiction and must not corrupt the graph.
  std::string pairs = TempPath("plain_pairs.txt");
  WriteFile(pairs, "0 1\n1 2\n");
  auto contradiction = ReadGraphAuto(pairs, /*symmetric=*/true,
                                     /*force_weighted=*/true);
  ASSERT_FALSE(contradiction.ok());
  EXPECT_EQ(contradiction.status().code(), StatusCode::kInvalidArgument);

  // Forcing on an already-weighted-looking file is a no-op.
  std::string triples = TempPath("plain_triples.txt");
  WriteFile(triples, "0 1 5\n1 2 7\n");
  auto weighted = ReadGraphAuto(triples, /*symmetric=*/true,
                                /*force_weighted=*/true);
  ASSERT_TRUE(weighted.ok());
  EXPECT_TRUE(weighted.ValueOrDie().weighted());
}

TEST(ReadGraphAuto, RefusesRetiredManifest) {
  std::string path = TempPath("retired_manifest_load.idx");
  WriteFile(path, kRetiredManifest);
  auto loaded = ReadGraphAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("cannot determine graph format"),
            std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace sage
