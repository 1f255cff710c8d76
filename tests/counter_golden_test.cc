// Counter golden: every PSAM counter of every registry algorithm, pinned to
// a recorded file.
//
// The parity suites compare two views of one build (overlay vs. compacted,
// sharded vs. monolithic, prefetch on vs. off), so a change to the charge
// path itself - which hits both sides alike - passes them all. This suite
// compares against numbers recorded from an earlier build instead: each of
// the 18 Table-1 algorithms runs at width 1 on a small mapped RMAT image
//   - under all-dram, graph-nvram, all-nvram and memory-mode;
//   - under graph-nvram with the single-socket and interleaved NUMA
//     layouts (two emulated sockets);
//   - on a 2-shard .bsadjx image, where per-shard attribution is on;
// and every CostTotals field plus every per-shard entry must equal the
// line recorded in golden/counters_rmat_w1.txt.
//
// To re-record after a deliberate counter change, run the suite with
// SAGE_COUNTER_GOLDEN_OUT=<path> and copy the written file over the golden
// (and say in the change why the counters moved).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "graph/binary_format.h"
#include "graph/generators.h"
#include "parallel/scheduler.h"
#include "graph/shard.h"
#include "graph/sharded_storage.h"

namespace sage {
namespace {

constexpr const char* kGoldenFile = "counters_rmat_w1.txt";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// One golden line: config, algorithm, the eight CostTotals fields in
// declaration order, then one reads/writes pair per graph shard.
std::string CounterLine(const std::string& config, const RunReport& r) {
  const nvram::CostTotals& c = r.cost;
  std::ostringstream line;
  line << config << ' ' << r.algorithm << ' ' << c.dram_reads << ' '
       << c.dram_writes << ' ' << c.nvram_reads << ' ' << c.nvram_writes
       << ' ' << c.nvram_prefetch_reads << ' ' << c.remote_nvram_accesses
       << ' ' << c.memory_mode_hits << ' ' << c.memory_mode_misses;
  for (const auto& s : r.per_shard) {
    line << ' ' << s.nvram_reads << '/' << s.nvram_writes;
  }
  return line.str();
}

void RunAll(const std::string& config, const Graph& g, const RunContext& ctx,
            std::vector<std::string>* lines) {
  for (const std::string& name : AlgorithmRegistry::Get().Names()) {
    auto run = AlgorithmRegistry::Run(name, g, ctx);
    ASSERT_TRUE(run.ok()) << config << ' ' << name << ": "
                          << run.status().ToString();
    lines->push_back(CounterLine(config, run.ValueOrDie()));
  }
}

std::vector<std::string> ReadGolden() {
  std::ifstream in(std::string(SAGE_TEST_DATA_DIR) + "/" + kGoldenFile);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(CounterGolden, EveryAlgorithmPolicyLayoutAndShardMatchesRecording) {
  const Graph g = RmatGraph(10, 8000, /*seed=*/5);
  const std::string mono = TempPath("counter_golden.bsadj");
  const std::string manifest = TempPath("counter_golden.bsadjx");
  ASSERT_TRUE(WriteBinaryGraph(g, mono).ok());
  ASSERT_TRUE(WriteShardedGraph(g, manifest, 2).ok());
  auto mapped = MapBinaryGraph(mono);
  auto sharded = MapShardedGraph(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  std::vector<std::string> lines;
  RunContext ctx;
  Scheduler::Reset(1);
  for (nvram::AllocPolicy policy :
       {nvram::AllocPolicy::kAllDram, nvram::AllocPolicy::kGraphNvram,
        nvram::AllocPolicy::kAllNvram, nvram::AllocPolicy::kMemoryMode}) {
    ctx.policy = policy;
    RunAll(std::string("mapped/") + nvram::AllocPolicyName(policy),
           mapped.ValueOrDie(), ctx, &lines);
  }
  ctx.policy = nvram::AllocPolicy::kGraphNvram;
  ctx.graph_layout = nvram::GraphLayout::kSingleSocket;
  RunAll("mapped/graph-nvram/single-socket", mapped.ValueOrDie(), ctx,
         &lines);
  ctx.graph_layout = nvram::GraphLayout::kInterleaved;
  RunAll("mapped/graph-nvram/interleaved", mapped.ValueOrDie(), ctx, &lines);
  ctx.graph_layout = nvram::GraphLayout::kReplicated;
  RunAll("sharded-2/graph-nvram", sharded.ValueOrDie(), ctx, &lines);
  Scheduler::Reset(0);

  if (const char* out = std::getenv("SAGE_COUNTER_GOLDEN_OUT")) {
    std::ofstream f(out, std::ios::trunc);
    f << "# config algorithm dram_reads dram_writes nvram_reads nvram_writes"
         " nvram_prefetch_reads remote_nvram_accesses memory_mode_hits"
         " memory_mode_misses [shard_reads/shard_writes ...]\n"
         "# RmatGraph(10, 8000, seed 5), width 1, default RunParams;"
         " written by counter_golden_test.\n";
    for (const auto& l : lines) f << l << '\n';
  }

  const std::vector<std::string> golden = ReadGolden();
  ASSERT_EQ(golden.size(), lines.size())
      << "golden has " << golden.size() << " lines, the run made "
      << lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]);
  }

  std::remove(mono.c_str());
  for (uint32_t s = 0; s < 2; ++s) {
    std::remove(TempPath("counter_golden.shard" + std::to_string(s) +
                         ".bsadj")
                    .c_str());
  }
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace sage
