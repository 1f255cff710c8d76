// Tests for the engine API facade: AlgorithmRegistry completeness and
// metadata, RunContext policy parsing, RunReport structure/JSON, Engine
// behavior, and the regression check that Registry::Run reports the same
// PSAM counters as the pre-registry direct-call path.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/sage.h"

namespace sage {
namespace {

// The Table 1 algorithm set, in registration (paper row) order.
const std::vector<std::string> kTable1Names = {
    "bfs",          "wbfs",
    "bellman-ford", "widest-path",
    "betweenness",  "spanner",
    "ldd",          "connectivity",
    "spanning-forest", "biconnectivity",
    "mis",          "maximal-matching",
    "coloring",     "set-cover",
    "kcore",        "densest-subgraph",
    "triangle-count", "pagerank"};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(h, bits);
}

template <typename T>
uint64_t MixVector(uint64_t h, const std::vector<T>& v) {
  h = Mix(h, v.size());
  for (const T& x : v) h = Mix(h, static_cast<uint64_t>(x));
  return h;
}

/// Order-sensitive content hash of an AlgoOutput, used to decide whether
/// two runs produced the same result.
uint64_t FingerprintOutput(const AlgoOutput& out) {
  struct Visitor {
    uint64_t operator()(const std::monostate&) const { return 0; }
    uint64_t operator()(const std::vector<vertex_id>& v) const {
      return MixVector(1, v);
    }
    uint64_t operator()(const std::vector<uint64_t>& v) const {
      return MixVector(2, v);
    }
    uint64_t operator()(const std::vector<double>& v) const {
      uint64_t h = 3;
      for (double d : v) h = MixDouble(h, d);
      return h;
    }
    uint64_t operator()(const std::vector<uint8_t>& v) const {
      return MixVector(4, v);
    }
    uint64_t operator()(
        const std::vector<std::pair<vertex_id, vertex_id>>& v) const {
      uint64_t h = 5;
      for (const auto& [a, b] : v) h = Mix(Mix(h, a), b);
      return h;
    }
    uint64_t operator()(const LddResult& r) const {
      uint64_t h = MixVector(6, r.cluster);
      h = MixVector(h, r.parent);
      h = MixVector(h, r.round);
      return Mix(h, r.num_clusters);
    }
    uint64_t operator()(const BiconnectivityResult& r) const {
      uint64_t h = MixVector(7, r.node_label);
      h = MixVector(h, r.parent);
      h = MixVector(h, r.preorder);
      return MixVector(h, r.subtree_size);
    }
    uint64_t operator()(const KCoreResult& r) const {
      uint64_t h = MixVector(8, r.coreness);
      return Mix(Mix(h, r.max_core), r.rounds);
    }
    uint64_t operator()(const DensestSubgraphResult& r) const {
      uint64_t h = MixDouble(9, r.density);
      h = MixVector(h, r.members);
      return Mix(h, r.rounds);
    }
    uint64_t operator()(const TriangleCountResult& r) const {
      return Mix(Mix(10, r.triangles), r.intersection_work);
    }
    uint64_t operator()(const PageRankResult& r) const {
      uint64_t h = 11;
      for (double d : r.rank) h = MixDouble(h, d);
      return Mix(h, r.iterations);
    }
  };
  return std::visit(Visitor{}, out);
}

Graph TestGraph() { return RmatGraph(10, 6000, /*seed=*/3); }

void ExpectTotalsEq(const nvram::CostTotals& a, const nvram::CostTotals& b,
                    const std::string& label) {
  EXPECT_EQ(a.dram_reads, b.dram_reads) << label;
  EXPECT_EQ(a.dram_writes, b.dram_writes) << label;
  EXPECT_EQ(a.nvram_reads, b.nvram_reads) << label;
  EXPECT_EQ(a.nvram_writes, b.nvram_writes) << label;
  EXPECT_EQ(a.remote_nvram_accesses, b.remote_nvram_accesses) << label;
  EXPECT_EQ(a.memory_mode_hits, b.memory_mode_hits) << label;
  EXPECT_EQ(a.memory_mode_misses, b.memory_mode_misses) << label;
}

TEST(AlgorithmRegistry, RegistersAllTable1Algorithms) {
  EXPECT_EQ(AlgorithmRegistry::Get().size(), 18u);
  EXPECT_EQ(AlgorithmRegistry::Get().Names(), kTable1Names);
}

TEST(AlgorithmRegistry, NamesAreUniqueAndKebabCase) {
  const std::regex kebab("[a-z0-9]+(-[a-z0-9]+)*");
  std::set<std::string> seen;
  for (const auto& entry : AlgorithmRegistry::Get().entries()) {
    const std::string& name = entry.info.name;
    EXPECT_TRUE(std::regex_match(name, kebab)) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    EXPECT_FALSE(entry.info.table1_row.empty()) << name;
    EXPECT_FALSE(entry.info.description.empty()) << name;
  }
}

TEST(AlgorithmRegistry, RejectsBadRegistrations) {
  auto& reg = AlgorithmRegistry::Get();
  auto noop = [](const Graph&, const RunContext&, const RunParams&) {
    return AlgoOutput{};
  };
  auto digest = [](const AlgoOutput&) { return std::string("x"); };
  auto named = [](const char* name) {
    AlgorithmInfo info;
    info.name = name;
    return info;
  };
  EXPECT_EQ(reg.Register(named("Not-Kebab"), noop, digest).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Register(named("double--dash"), noop, digest).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Register(named("bfs"), noop, digest).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Register(named("no-runner"), nullptr, digest).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Register(named("no-digest"), noop, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.size(), 18u);
}

// Declared requirements must match what the runner actually consumes:
// run every algorithm single-threaded on two weighted views (different
// weights, same structure) — output changes iff needs_weights; and from
// two different sources — output changes iff needs_source.
TEST(AlgorithmRegistry, DeclaredRequirementsMatchRunnerConsumption) {
  Scheduler::Reset(1);
  Graph g = TestGraph();
  Graph gw_a = AddRandomWeights(g, 7);
  Graph gw_b = AddRandomWeights(g, 8);
  RunContext ctx;
  for (const auto& entry : AlgorithmRegistry::Get().entries()) {
    const std::string& name = entry.info.name;

    RunParams params;
    params.source = 1;
    auto run_a = AlgorithmRegistry::Run(name, gw_a, ctx, params);
    auto run_b = AlgorithmRegistry::Run(name, gw_b, ctx, params);
    ASSERT_TRUE(run_a.ok()) << name << ": " << run_a.status().ToString();
    ASSERT_TRUE(run_b.ok()) << name << ": " << run_b.status().ToString();
    bool weight_sensitive =
        FingerprintOutput(run_a.ValueOrDie().output) !=
        FingerprintOutput(run_b.ValueOrDie().output);
    EXPECT_EQ(weight_sensitive, entry.info.needs_weights)
        << name << " declares needs_weights=" << entry.info.needs_weights
        << " but output " << (weight_sensitive ? "changed" : "did not change")
        << " under different edge weights";

    RunParams other_src = params;
    other_src.source = 2;
    auto run_c = AlgorithmRegistry::Run(name, gw_a, ctx, other_src);
    ASSERT_TRUE(run_c.ok()) << name << ": " << run_c.status().ToString();
    bool source_sensitive =
        FingerprintOutput(run_a.ValueOrDie().output) !=
        FingerprintOutput(run_c.ValueOrDie().output);
    EXPECT_EQ(source_sensitive, entry.info.needs_source)
        << name << " declares needs_source=" << entry.info.needs_source
        << " but output " << (source_sensitive ? "changed" : "did not change")
        << " under a different source vertex";
  }
  Scheduler::Reset(0);
}

TEST(AlgorithmRegistry, SymmetryRequirementsAreDeclared) {
  // The traversal/source-rooted problems and the covering problems run on
  // directed inputs; everything structural requires a symmetric graph.
  const std::set<std::string> symmetric_required = {
      "spanner",  "ldd",          "connectivity",     "spanning-forest",
      "biconnectivity", "mis",    "maximal-matching", "coloring",
      "kcore",    "densest-subgraph", "triangle-count"};
  for (const auto& entry : AlgorithmRegistry::Get().entries()) {
    EXPECT_EQ(entry.info.requires_symmetric,
              symmetric_required.count(entry.info.name) > 0)
        << entry.info.name;
  }
}

// The facade must report exactly the counters the old direct-call path
// observed for the kernel: same call, same options, single-threaded for
// determinism. Summary digests run outside the frame and must not show up
// in the report's counters.
TEST(AlgorithmRegistry, CountersMatchDirectCallPath) {
  Scheduler::Reset(1);
  Graph g = TestGraph();
  Graph gw = AddRandomWeights(g, 99);
  const vertex_id src = 1;

  // Direct kernel invocation per algorithm, with the same defaults the
  // registry runners use.
  using Direct = std::function<void(const Graph&, const Graph&)>;
  std::vector<std::pair<std::string, Direct>> direct = {
      {"bfs", [&](const Graph& u, const Graph&) { (void)Bfs(u, src); }},
      {"wbfs",
       [&](const Graph&, const Graph& w) { (void)WeightedBfs(w, src); }},
      {"bellman-ford",
       [&](const Graph&, const Graph& w) { (void)BellmanFord(w, src); }},
      {"widest-path",
       [&](const Graph&, const Graph& w) {
         (void)WidestPathBucketed(w, src);
       }},
      {"betweenness",
       [&](const Graph& u, const Graph&) { (void)Betweenness(u, src); }},
      {"spanner", [&](const Graph& u, const Graph&) { (void)Spanner(u); }},
      {"ldd",
       [&](const Graph& u, const Graph&) {
         (void)LowDiameterDecomposition(u, 0.2, 1);
       }},
      {"connectivity",
       [&](const Graph& u, const Graph&) { (void)Connectivity(u); }},
      {"spanning-forest",
       [&](const Graph& u, const Graph&) { (void)SpanningForest(u); }},
      {"biconnectivity",
       [&](const Graph& u, const Graph&) { (void)Biconnectivity(u); }},
      {"mis",
       [&](const Graph& u, const Graph&) {
         (void)MaximalIndependentSet(u, 1);
       }},
      {"maximal-matching",
       [&](const Graph& u, const Graph&) { (void)MaximalMatching(u, 1); }},
      {"coloring",
       [&](const Graph& u, const Graph&) { (void)GraphColoring(u, 1); }},
      {"set-cover",
       [&](const Graph& u, const Graph&) { (void)ApproximateSetCover(u); }},
      {"kcore", [&](const Graph& u, const Graph&) { (void)KCore(u); }},
      {"densest-subgraph",
       [&](const Graph& u, const Graph&) { (void)ApproxDensestSubgraph(u); }},
      {"triangle-count",
       [&](const Graph& u, const Graph&) { (void)TriangleCount(u); }},
      {"pagerank",
       [&](const Graph& u, const Graph&) { (void)PageRank(u, 1e-6, 100); }},
  };
  ASSERT_EQ(direct.size(), AlgorithmRegistry::Get().size());

  auto& cm = nvram::Cost();
  for (const auto& [name, fn] : direct) {
    // Old path: configure the ambient (default) context, reset, run, read
    // totals.
    cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
    cm.ResetCounters();
    fn(g, gw);
    nvram::CostTotals direct_totals = cm.Totals();

    // New path: one Registry::Run under the default context.
    RunContext ctx;
    RunParams params;
    params.source = src;
    auto run = AlgorithmRegistry::Run(name, g, ctx, params, &gw);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    const RunReport& report = run.ValueOrDie();
    ExpectTotalsEq(report.cost, direct_totals, name);
    EXPECT_EQ(report.algorithm, name);
    EXPECT_FALSE(report.summary.empty()) << name;
    EXPECT_EQ(report.threads, 1);
  }
  Scheduler::Reset(0);
}

// Sage's semi-asymmetric invariant, end to end through the facade: under
// the graph-on-NVRAM policy no algorithm ever writes to NVRAM.
// AddRandomWeights' view reads the input's own offsets and neighbors, so
// a weighted run on it must charge exactly what a run on a full in-memory
// copy of the same weighted graph charges: the same summary and every
// counter, under every policy (residence follows the mapped input either
// way). One worker: relaxation rounds race on writeMin.
TEST(AlgorithmRegistry, WeightedViewChargesExactlyLikeACopy) {
  const std::string path = ::testing::TempDir() + "/weighted_view.bsadj";
  ASSERT_TRUE(WriteBinaryGraph(TestGraph(), path).ok());
  auto mapped = MapBinaryGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Graph g = mapped.TakeValue();
  ASSERT_FALSE(g.weighted());

  const Graph view = AddRandomWeights(g, 7);
  EXPECT_EQ(view.raw_offsets().data(), g.raw_offsets().data());
  EXPECT_EQ(view.raw_neighbors().data(), g.raw_neighbors().data());
  EXPECT_TRUE(view.nvram_resident());
  ASSERT_EQ(view.raw_weights().size(), g.num_edges());
  const Graph copy({view.raw_offsets().begin(), view.raw_offsets().end()},
                   {view.raw_neighbors().begin(), view.raw_neighbors().end()},
                   {view.raw_weights().begin(), view.raw_weights().end()},
                   view.symmetric());
  ASSERT_FALSE(copy.nvram_resident());

  Scheduler::Reset(1);
  for (const nvram::AllocPolicy policy :
       {nvram::AllocPolicy::kGraphNvram, nvram::AllocPolicy::kAllDram,
        nvram::AllocPolicy::kAllNvram, nvram::AllocPolicy::kMemoryMode}) {
    RunContext ctx;
    ctx.policy = policy;
    for (const std::string algo : {"bellman-ford", "wbfs", "widest-path"}) {
      const std::string label = algo + " " + nvram::AllocPolicyName(policy);
      auto on_view = AlgorithmRegistry::Run(algo, g, ctx, {.source = 1}, &view);
      auto on_copy = AlgorithmRegistry::Run(algo, g, ctx, {.source = 1}, &copy);
      ASSERT_TRUE(on_view.ok()) << label << ": " << on_view.status().ToString();
      ASSERT_TRUE(on_copy.ok()) << label << ": " << on_copy.status().ToString();
      const RunReport& a = on_view.ValueOrDie();
      const RunReport& b = on_copy.ValueOrDie();
      EXPECT_EQ(a.summary, b.summary) << label;
      ExpectTotalsEq(a.cost, b.cost, label);
      EXPECT_EQ(a.cost.nvram_prefetch_reads, b.cost.nvram_prefetch_reads)
          << label;
    }
  }
  Scheduler::Reset(0);
  std::remove(path.c_str());
}

TEST(AlgorithmRegistry, NoNvramWritesUnderGraphNvramPolicy) {
  Graph g = TestGraph();
  RunContext ctx;
  RunParams params;
  params.source = 1;
  for (const auto& name : AlgorithmRegistry::Get().Names()) {
    auto run = AlgorithmRegistry::Run(name, g, ctx, params);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    const RunReport& report = run.ValueOrDie();
    EXPECT_EQ(report.cost.nvram_writes, 0u) << name;
    EXPECT_GT(report.cost.nvram_reads, 0u) << name;
  }
}

TEST(AlgorithmRegistry, ReportsPeakIntermediateMemory) {
  Graph g = TestGraph();
  RunContext ctx;
  auto run = AlgorithmRegistry::Run("bfs", g, ctx);
  ASSERT_TRUE(run.ok());
  // BFS frontiers are tracked VertexSubsets: the Table 5 metric is live.
  EXPECT_GT(run.ValueOrDie().peak_intermediate_bytes, 0u);
}

TEST(AlgorithmRegistry, UnknownAlgorithmIsNotFound) {
  Graph g = TestGraph();
  RunContext ctx;
  auto run = AlgorithmRegistry::Run("no-such-algo", g, ctx);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
  EXPECT_NE(run.status().message().find("bfs"), std::string::npos);
}

TEST(AlgorithmRegistry, SourceOutOfRangeIsInvalidArgument) {
  Graph g = TestGraph();
  RunContext ctx;
  RunParams params;
  params.source = g.num_vertices();
  auto run = AlgorithmRegistry::Run("bfs", g, ctx, params);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlgorithmRegistry, RunRestoresDeviceConfiguration) {
  Graph g = TestGraph();
  auto& cm = nvram::Cost();
  cm.SetAllocPolicy(nvram::AllocPolicy::kAllDram);
  auto cfg = cm.config();
  cfg.omega = 2.5;
  cm.SetConfig(cfg);

  RunContext ctx;
  ctx.policy = nvram::AllocPolicy::kMemoryMode;
  ctx.omega = 16.0;
  auto run = AlgorithmRegistry::Run("triangle-count", g, ctx);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.ValueOrDie().policy, nvram::AllocPolicy::kMemoryMode);
  EXPECT_GT(run.ValueOrDie().cost.memory_mode_hits +
                run.ValueOrDie().cost.memory_mode_misses,
            0u);

  EXPECT_EQ(cm.alloc_policy(), nvram::AllocPolicy::kAllDram);
  EXPECT_DOUBLE_EQ(cm.config().omega, 2.5);

  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  cfg.omega = 4.0;
  cm.SetConfig(cfg);
}

TEST(RunContext, ParsesEveryPolicyRoundTrip) {
  for (auto policy :
       {nvram::AllocPolicy::kAllDram, nvram::AllocPolicy::kGraphNvram,
        nvram::AllocPolicy::kAllNvram, nvram::AllocPolicy::kMemoryMode}) {
    auto parsed = ParseAllocPolicy(nvram::AllocPolicyName(policy));
    ASSERT_TRUE(parsed.ok()) << nvram::AllocPolicyName(policy);
    EXPECT_EQ(parsed.ValueOrDie(), policy);
  }
}

TEST(RunContext, RejectsUnknownPolicyListingChoices) {
  auto parsed = ParseAllocPolicy("optane-turbo");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // The error must enumerate the valid spellings.
  for (const char* valid :
       {"graph-nvram", "all-dram", "all-nvram", "memory-mode"}) {
    EXPECT_NE(parsed.status().message().find(valid), std::string::npos)
        << valid;
  }
}

TEST(RunReport, JsonIsWellFormedAndCarriesCounters) {
  Graph g = TestGraph();
  RunContext ctx;
  auto run = AlgorithmRegistry::Run("bfs", g, ctx);
  ASSERT_TRUE(run.ok());
  std::string json = run.ValueOrDie().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  size_t open = 0, close = 0;
  for (char c : json) {
    if (c == '{') ++open;
    if (c == '}') ++close;
  }
  EXPECT_EQ(open, close);
  for (const char* key :
       {"\"algorithm\": \"bfs\"", "\"summary\"", "\"wall_seconds\"",
        "\"device_seconds\"", "\"threads\"", "\"policy\"",
        "\"graph_source\": \"memory\"", "\"omega\"", "\"psam_cost\"",
        "\"peak_intermediate_bytes\"", "\"counters\"", "\"dram_reads\"",
        "\"nvram_writes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Engine, RunsWeightedAlgorithmsOnUnweightedGraphs) {
  Scheduler::Reset(1);
  Engine engine(TestGraph());
  EXPECT_FALSE(engine.graph().weighted());
  auto first = engine.Run("bellman-ford", {.source = 1});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Second run reads the snapshot's memoized weighted view: identical
  // output.
  auto second = engine.Run("bellman-ford", {.source = 1});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(FingerprintOutput(first.ValueOrDie().output),
            FingerprintOutput(second.ValueOrDie().output));
  Scheduler::Reset(0);
}

TEST(Engine, ReportsErrorsFromTheRegistry) {
  Engine engine(TestGraph());
  EXPECT_EQ(engine.Run("nope").status().code(), StatusCode::kNotFound);
}

TEST(Engine, OutputVariantHoldsNativeTypes) {
  Engine engine(TestGraph());
  auto bfs = engine.Run("bfs");
  ASSERT_TRUE(bfs.ok());
  ASSERT_TRUE(std::holds_alternative<std::vector<vertex_id>>(
      bfs.ValueOrDie().output));
  const auto& parents =
      std::get<std::vector<vertex_id>>(bfs.ValueOrDie().output);
  EXPECT_EQ(parents.size(), engine.graph().num_vertices());

  auto kcore = engine.Run("kcore");
  ASSERT_TRUE(kcore.ok());
  ASSERT_TRUE(std::holds_alternative<KCoreResult>(kcore.ValueOrDie().output));
  EXPECT_GT(std::get<KCoreResult>(kcore.ValueOrDie().output).max_core, 0u);
}

}  // namespace
}  // namespace sage
