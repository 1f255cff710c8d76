// Tests for the multi-shard graph backend: partitioning, the .bsadjx
// manifest round trip, assembled-mapping equivalence with the monolithic
// CSR, ShardParity (bit-identical algorithm results and PSAM totals
// between a k-shard mapping and the monolithic image), per-shard cost
// attribution, manifest/segment corruption rejection, and the engine's
// sharded-update guards.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "api/registry.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shard.h"
#include "graph/sharded_storage.h"
#include "nvram/cost_model.h"
#include "parallel/scheduler.h"

namespace sage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string SegmentPath(const std::string& manifest, uint32_t shard) {
  // WriteShardedGraph lands segments beside the manifest as
  // <stem>.shard<i>.bsadj.
  std::string stem = manifest.substr(0, manifest.size() - 7);  // ".bsadjx"
  return stem + ".shard" + std::to_string(shard) + ".bsadj";
}

void RemoveSharded(const std::string& manifest, uint32_t shards) {
  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(SegmentPath(manifest, s).c_str());
  }
  std::remove(manifest.c_str());
}

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.symmetric(), b.symmetric());
  EXPECT_EQ(a.weighted(), b.weighted());
  EXPECT_TRUE(std::ranges::equal(a.raw_offsets(), b.raw_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.raw_neighbors(), b.raw_neighbors()));
  EXPECT_TRUE(std::ranges::equal(a.raw_weights(), b.raw_weights()));
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(Shard, PartitionTilesVerticesAndBalancesEdges) {
  Graph g = RmatGraph(10, 8000, 7);
  for (uint32_t k : {1u, 2u, 5u, 8u}) {
    auto b = PartitionVertices(g, k);
    ASSERT_EQ(b.size(), k + 1u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), g.num_vertices());
    for (uint32_t s = 0; s < k; ++s) EXPECT_LE(b[s], b[s + 1]);
    // Edge-balanced: every shard's edge span stays within one max-degree
    // granule of the ideal m/k slice.
    const auto offsets = g.raw_offsets();
    uint64_t max_degree = 0;
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      max_degree = std::max<uint64_t>(max_degree, g.degree_uncharged(v));
    }
    for (uint32_t s = 0; s < k; ++s) {
      uint64_t span = offsets[b[s + 1]] - offsets[b[s]];
      EXPECT_LE(span, g.num_edges() / k + max_degree + 1);
    }
  }
}

TEST(Shard, WriteMapRoundTripMatchesMonolithic) {
  Graph g = RmatGraph(9, 6000, 3);
  for (uint32_t k : {1u, 3u, 4u}) {
    std::string manifest =
        TempPath("roundtrip_k" + std::to_string(k) + ".bsadjx");
    ASSERT_TRUE(WriteShardedGraph(g, manifest, k).ok());
    auto mapped = MapShardedGraph(manifest);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectGraphsEqual(mapped.ValueOrDie(), g);
    EXPECT_TRUE(mapped.ValueOrDie().nvram_resident());
    auto storage = mapped.ValueOrDie().storage();
    ASSERT_NE(storage, nullptr);
    EXPECT_EQ(storage->shard_count(), k);
    const auto estarts = storage->shard_edge_starts();
    ASSERT_EQ(estarts.size(), k + 1u);
    EXPECT_EQ(estarts.front(), 0u);
    EXPECT_EQ(estarts.back(), g.num_edges());
    RemoveSharded(manifest, k);
  }
}

TEST(Shard, WeightedRoundTrip) {
  Graph g = AddRandomWeights(RmatGraph(9, 5000, 11), 42);
  std::string manifest = TempPath("weighted.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 3).ok());
  auto mapped = MapShardedGraph(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectGraphsEqual(mapped.ValueOrDie(), g);
  RemoveSharded(manifest, 3);
}

TEST(Shard, DetectedAndLoadedThroughReadGraphAuto) {
  Graph g = RmatGraph(8, 2000, 5);
  std::string manifest = TempPath("auto.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  auto fmt = DetectGraphFormat(manifest);
  ASSERT_TRUE(fmt.ok());
  EXPECT_EQ(fmt.ValueOrDie(), GraphFileFormat::kShardManifest);
  auto loaded = ReadGraphAuto(manifest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(loaded.ValueOrDie(), g);
  RemoveSharded(manifest, 2);
}

TEST(Shard, SegmentFilesRejectMonolithicOpen) {
  Graph g = RmatGraph(8, 2000, 5);
  std::string manifest = TempPath("segreject.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  // A segment is not a standalone graph: the monolithic readers must
  // reject it and point at the manifest.
  auto read = ReadBinaryGraph(SegmentPath(manifest, 0));
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("manifest"), std::string::npos);
  auto mapped = MapBinaryGraph(SegmentPath(manifest, 0));
  EXPECT_FALSE(mapped.ok());
  RemoveSharded(manifest, 2);
}

// The tentpole acceptance: algorithm summaries, counters, and PSAM totals
// over a k-shard mapping are bit-identical to the monolithic image.
TEST(ShardParity, AlgorithmsMatchMonolithicBitForBit) {
  Graph g = RmatGraph(10, 20000, 17);
  std::string mono = TempPath("shard_parity.bsadj");
  std::string manifest = TempPath("shard_parity.bsadjx");
  ASSERT_TRUE(WriteBinaryGraph(g, mono).ok());
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 4).ok());
  auto mono_g = MapBinaryGraph(mono);
  auto shard_g = MapShardedGraph(manifest);
  ASSERT_TRUE(mono_g.ok()) << mono_g.status().ToString();
  ASSERT_TRUE(shard_g.ok()) << shard_g.status().ToString();

  RunContext rctx;
  Scheduler::Reset(1);  // deterministic schedules on both sides
  for (const char* algo :
       {"bfs", "connectivity", "pagerank", "bellman-ford", "wbfs"}) {
    auto a = AlgorithmRegistry::Run(algo, mono_g.ValueOrDie(), rctx);
    auto b = AlgorithmRegistry::Run(algo, shard_g.ValueOrDie(), rctx);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const RunReport& ra = a.ValueOrDie();
    const RunReport& rb = b.ValueOrDie();
    EXPECT_EQ(ra.summary, rb.summary) << algo;
    EXPECT_EQ(ra.cost.dram_reads, rb.cost.dram_reads) << algo;
    EXPECT_EQ(ra.cost.dram_writes, rb.cost.dram_writes) << algo;
    EXPECT_EQ(ra.cost.nvram_reads, rb.cost.nvram_reads) << algo;
    EXPECT_EQ(ra.cost.nvram_writes, rb.cost.nvram_writes) << algo;
    EXPECT_EQ(ra.cost.remote_nvram_accesses, rb.cost.remote_nvram_accesses)
        << algo;
    // Attribution is the sharded run's extra: per-shard bins exist, sum to
    // a subset of the NVRAM reads, and never appear on the monolithic run.
    EXPECT_TRUE(ra.per_shard.empty()) << algo;
    ASSERT_EQ(rb.per_shard.size(), 4u) << algo;
    uint64_t binned = 0;
    for (const auto& s : rb.per_shard) binned += s.nvram_reads;
    EXPECT_GT(binned, 0u) << algo;
    EXPECT_LE(binned, rb.cost.nvram_reads) << algo;
  }
  Scheduler::Reset(0);
  RemoveSharded(manifest, 4);
  std::remove(mono.c_str());
}

TEST(ShardParity, MultiThreadedRunsMatchMonolithicSummaries) {
  Graph g = RmatGraph(10, 20000, 23);
  std::string manifest = TempPath("widths.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 4).ok());
  auto mapped = MapShardedGraph(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Graph& sg = mapped.ValueOrDie();

  // The plain edgeMap's parallel rounds run straight across the spliced
  // segments. Summaries are order-insensitive aggregates (reached counts,
  // component counts, iteration counts), so every width must reproduce
  // the monolithic single-threaded run's.
  RunContext rctx;
  for (const char* algo : {"bfs", "connectivity", "pagerank"}) {
    Scheduler::Reset(1);
    auto ref = AlgorithmRegistry::Run(algo, g, rctx);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (int width : {1, 2, 4}) {
      Scheduler::Reset(width);
      auto run = AlgorithmRegistry::Run(algo, sg, rctx);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.ValueOrDie().summary, ref.ValueOrDie().summary)
          << algo << " at width " << width;
      EXPECT_EQ(run.ValueOrDie().per_shard.size(), 4u) << algo;
    }
  }
  Scheduler::Reset(0);
  RemoveSharded(manifest, 4);
}

TEST(Shard, ChargedGraphReadsBinToTheirShard) {
  Graph g = RmatGraph(9, 8000, 29);
  std::string manifest = TempPath("bins.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 4).ok());
  auto mapped = MapShardedGraph(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const auto estarts = mapped.ValueOrDie().storage()->shard_edge_starts();
  ASSERT_EQ(estarts.size(), 5u);

  auto& cm = nvram::Cost();
  const auto prev_policy = cm.alloc_policy();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  cm.SetGraphShards(estarts);
  cm.ResetCounters();
  // A read lands in the shard whose edge range holds its address: each
  // shard's first and last edge index, plus a hint at or past m (a
  // zero-degree tail vertex's offset), which clamps into the last shard.
  for (uint32_t s = 0; s < 4; ++s) {
    cm.ChargeGraphRead(s + 1, estarts[s]);
    cm.ChargeGraphRead(10, estarts[s + 1] - 1);
  }
  cm.ChargeGraphRead(100, estarts[4]);
  const auto bins = cm.ShardTotals();
  ASSERT_EQ(bins.size(), 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(bins[s].nvram_reads, s + 1 + 10 + (s == 3 ? 100u : 0u)) << s;
    EXPECT_EQ(bins[s].nvram_writes, 0u) << s;
  }
  EXPECT_EQ(cm.Totals().nvram_reads, 1u + 2 + 3 + 4 + 40 + 100);
  cm.SetGraphShards({});
  cm.SetAllocPolicy(prev_policy);
  cm.ResetCounters();
  RemoveSharded(manifest, 4);
}

TEST(Manifest, MissingSegmentRejected) {
  Graph g = RmatGraph(8, 2000, 9);
  std::string manifest = TempPath("missing.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 3).ok());
  ASSERT_EQ(std::remove(SegmentPath(manifest, 1).c_str()), 0);
  auto mapped = MapShardedGraph(manifest);
  ASSERT_FALSE(mapped.ok());
  RemoveSharded(manifest, 3);
}

TEST(Manifest, TruncatedSegmentRejected) {
  Graph g = RmatGraph(8, 2000, 9);
  std::string manifest = TempPath("trunc.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  std::string seg = SegmentPath(manifest, 1);
  std::ifstream probe(seg, std::ios::binary | std::ios::ate);
  auto size = static_cast<uint64_t>(probe.tellg());
  probe.close();
  ASSERT_EQ(::truncate(seg.c_str(), static_cast<off_t>(size - 16)), 0);
  auto mapped = MapShardedGraph(manifest);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
      << mapped.status().ToString();
  RemoveSharded(manifest, 2);
}

TEST(Manifest, CorruptOffsetsFailChecksum) {
  Graph g = RmatGraph(8, 2000, 9);
  std::string manifest = TempPath("sum.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  // Flip one byte inside the offsets section (past the 64-byte header),
  // keeping the file size intact: only the structural checksum catches it.
  std::string seg = SegmentPath(manifest, 0);
  std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(72);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(72);
  f.write(&byte, 1);
  f.close();
  auto mapped = MapShardedGraph(manifest);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().ToString().find("checksum"), std::string::npos)
      << mapped.status().ToString();
  RemoveSharded(manifest, 2);
}

TEST(Manifest, OverlappingAndNonCoveringRangesRejected) {
  Graph g = RmatGraph(8, 2000, 9);
  std::string manifest = TempPath("ranges.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  const std::string original = ReadText(manifest);

  // Overlap: move shard 1's vertex_begin backwards one vertex.
  {
    std::istringstream in(original);
    std::string header, graph_line, line0, line1;
    std::getline(in, header);
    std::getline(in, graph_line);
    std::getline(in, line0);
    std::getline(in, line1);
    std::istringstream s1(line1);
    std::string tag;
    uint64_t v0, v1, e0, e1;
    s1 >> tag >> v0 >> v1 >> e0 >> e1;
    std::string rest;
    std::getline(s1, rest);
    ASSERT_GT(v0, 0u);
    std::string overlapped = "shard " + std::to_string(v0 - 1) + " " +
                             std::to_string(v1) + " " + std::to_string(e0) +
                             " " + std::to_string(e1) + rest;
    WriteText(manifest,
              header + "\n" + graph_line + "\n" + line0 + "\n" + overlapped +
                  "\n");
    auto parsed = ReadShardManifest(manifest);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  }

  // Non-covering: drop the last shard line and shrink the count.
  {
    std::istringstream in(original);
    std::string header, graph_line, line0;
    std::getline(in, header);
    std::getline(in, graph_line);
    std::getline(in, line0);
    size_t pos = graph_line.rfind("shards 2");
    ASSERT_NE(pos, std::string::npos);
    graph_line.replace(pos, 8, "shards 1");
    WriteText(manifest, header + "\n" + graph_line + "\n" + line0 + "\n");
    auto parsed = ReadShardManifest(manifest);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().ToString().find("cover"), std::string::npos);
  }

  WriteText(manifest, original);
  ASSERT_TRUE(ReadShardManifest(manifest).ok());
  RemoveSharded(manifest, 2);
}

TEST(Manifest, FutureVersionAndAbsolutePathsRejected) {
  std::string manifest = TempPath("bad.bsadjx");
  WriteText(manifest,
            "BSADJX 99\nn 1 m 0 weighted 0 symmetric 1 shards 1\n"
            "shard 0 1 0 0 0 64 seg.bsadj\n");
  auto v = ReadShardManifest(manifest);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("version"), std::string::npos);

  WriteText(manifest,
            "BSADJX 1\nn 1 m 0 weighted 0 symmetric 1 shards 1\n"
            "shard 0 1 0 0 0 64 ../evil.bsadj\n");
  auto p = ReadShardManifest(manifest);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().ToString().find("path"), std::string::npos);
  std::remove(manifest.c_str());
}

TEST(Engine, UpdatesAndCompactionUnimplementedOnShardedGraphs) {
  Graph g = RmatGraph(8, 2000, 13);
  std::string manifest = TempPath("engine.bsadjx");
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  auto mapped = MapShardedGraph(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  Engine engine(mapped.TakeValue());
  std::vector<EdgeUpdate> updates = {EdgeUpdate::Insert(1, 2)};
  auto applied = engine.ApplyUpdates(updates);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kUnimplemented)
      << applied.status().ToString();
  auto compacted = engine.Compact();
  ASSERT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.status().code(), StatusCode::kUnimplemented);
  // Queries still work on the sharded engine.
  auto run = engine.Run("bfs", RunParams{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  RemoveSharded(manifest, 2);
}

}  // namespace
}  // namespace sage
