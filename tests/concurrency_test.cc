// Concurrency suite for the multi-tenant query engine: per-run
// ExecutionContext counter isolation, ambient-config immunity, the
// race-free weighted-view memo, and the QueryService bounded queue.
//
// The isolation tests lean on a property the per-run contexts must
// provide: an algorithm's PSAM counters are a deterministic function of
// (graph, params, scheduler width), so a run executed alone and the same
// run executed while seven other algorithms hammer the same graph must
// report *identical* counters. Any cross-run bleed - one query's charge
// landing in another's context - breaks the equality.
//
// This suite is the target of the CI ThreadSanitizer lane (SAGE_SANITIZE=
// thread); keep new tests free of intentionally-racy constructs.
#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sage.h"

namespace sage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Graph SharedGraph() { return RmatGraph(10, 6000, /*seed=*/3); }

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

Result<RunReport> RunByName(const std::string& name, const Graph& g,
                            const Graph& gw, const RunContext& ctx,
                            const RunParams& params) {
  return AlgorithmRegistry::Run(name, g, ctx, params, &gw);
}

// The propagation mechanism itself: a bound context receives charges from
// every worker executing its forked work, and the ambient (default)
// context sees none of it.
TEST(Concurrency, TaskTagRoutesParallelChargesToBoundContext) {
  constexpr size_t kN = 1 << 14;
  const auto ambient_before =
      nvram::ExecutionContext::Default().cost_model().Totals();

  nvram::ExecutionContext exec;
  exec.InheritDeviceState(nvram::ExecutionContext::Default());
  {
    nvram::ScopedExecutionContext scope(exec);
    EXPECT_EQ(nvram::ExecutionContext::CurrentOrNull(), &exec);
    // One work-write per index, charged from whichever worker runs the
    // slice: all of it must land in `exec`.
    parallel_for(0, kN, [](size_t) { nvram::Cost().ChargeWorkWrite(1); });
  }
  EXPECT_EQ(nvram::ExecutionContext::CurrentOrNull(), nullptr);
  EXPECT_EQ(exec.cost_model().Totals().dram_writes, kN);

  const auto ambient_after =
      nvram::ExecutionContext::Default().cost_model().Totals();
  EXPECT_EQ(ambient_after.dram_writes, ambient_before.dram_writes)
      << "bound-context charges must not bleed into the default context";
}

// All 18 registered algorithms at once - one thread per algorithm - over
// one shared graph: every concurrent run's counters (and peak DRAM) must
// equal its serial-run twin exactly. The scheduler is pinned to width 1
// (the serving-mode configuration the concurrent_queries bench measures):
// with no intra-run parallelism every algorithm's charges are strictly
// deterministic, so any inequality is cross-run bleed, not timing. The
// ambient-width variant below covers the work-stealing paths.
TEST(Concurrency, All18AlgorithmsCountersMatchSerialRuns) {
  Scheduler::Reset(1);
  Graph g = SharedGraph();
  Graph gw = AddRandomWeights(g, 99);
  const std::vector<std::string> names = AlgorithmRegistry::Get().Names();
  ASSERT_EQ(names.size(), 18u);
  RunContext ctx;
  RunParams params;
  params.source = 1;

  // Serial baselines, one quiet run per algorithm.
  std::vector<RunReport> serial;
  for (const std::string& name : names) {
    auto run = RunByName(name, g, gw, ctx, params);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    serial.push_back(run.TakeValue());
  }

  // Hammer: all 18 at once, several rounds so runs genuinely overlap in
  // every phase combination.
  constexpr int kRounds = 3;
  std::vector<std::vector<Result<RunReport>>> results(names.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      threads.emplace_back([&, i] {
        for (int r = 0; r < kRounds; ++r) {
          results[i].push_back(RunByName(names[i], g, gw, ctx, params));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    ASSERT_EQ(results[i].size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(results[i][r].ok())
          << name << ": " << results[i][r].status().ToString();
      const RunReport& report = results[i][r].ValueOrDie();
      ExpectTotalsEq(report.cost, serial[i].cost,
                     name + " round " + std::to_string(r));
      EXPECT_EQ(report.peak_intermediate_bytes,
                serial[i].peak_intermediate_bytes)
          << name << " round " << r;
      EXPECT_GT(report.cost.nvram_reads, 0u) << name;
      EXPECT_EQ(report.cost.nvram_writes, 0u)
          << name << ": graph-nvram policy must stay read-only";
    }
  }
  Scheduler::Reset(0);
}

// Counter isolation with intra-run parallelism at the ambient width: the
// same charges flow through work stealing and help-while-waiting, where a
// worker (or a blocked session thread) executes jobs belonging to several
// runs back to back. Restricted to kernels whose charge totals are
// scheduling-order-insensitive (single-claim frontiers / fixed iteration
// shapes); order-sensitive kernels like Bellman-Ford relax mid-round and
// are exact only at width 1 (covered above).
TEST(Concurrency, StolenWorkChargesStayIsolatedAtAmbientWidth) {
  Graph g = SharedGraph();
  const std::vector<std::string> names = {"bfs", "pagerank", "kcore",
                                          "connectivity", "triangle-count"};
  RunContext ctx;
  RunParams params;
  params.source = 1;

  std::vector<RunReport> serial;
  for (const std::string& name : names) {
    auto run = AlgorithmRegistry::Run(name, g, ctx, params);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    serial.push_back(run.TakeValue());
  }

  constexpr int kRounds = 3;
  std::vector<std::vector<Result<RunReport>>> results(names.size());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < names.size(); ++i) {
      threads.emplace_back([&, i] {
        for (int r = 0; r < kRounds; ++r) {
          results[i].push_back(
              AlgorithmRegistry::Run(names[i], g, ctx, params));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  for (size_t i = 0; i < names.size(); ++i) {
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(results[i][r].ok())
          << names[i] << ": " << results[i][r].status().ToString();
      ExpectTotalsEq(results[i][r].ValueOrDie().cost, serial[i].cost,
                     names[i] + " round " + std::to_string(r));
    }
  }
}

// Overlapping runs with aggressive per-run configs must leave the ambient
// (default-context) device state untouched - there is no global mutation
// to restore anymore.
TEST(Concurrency, OverlappingRunsLeaveAmbientConfigUntouched) {
  Graph g = SharedGraph();
  auto& ambient = nvram::ExecutionContext::Default().cost_model();
  const auto prev_policy = ambient.alloc_policy();
  auto cfg = ambient.config();
  const double prev_omega = cfg.omega;
  ambient.SetAllocPolicy(nvram::AllocPolicy::kAllDram);
  cfg.omega = 2.5;
  ambient.SetConfig(cfg);

  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&, i] {
        RunContext ctx;
        ctx.policy = (i % 2 == 0) ? nvram::AllocPolicy::kGraphNvram
                                  : nvram::AllocPolicy::kMemoryMode;
        ctx.omega = 16.0 + i;
        auto run = AlgorithmRegistry::Run("kcore", g, ctx);
        EXPECT_TRUE(run.ok()) << run.status().ToString();
        // Each run inherits the ambient omega only as a base; its report
        // carries its own override.
        if (run.ok()) {
          EXPECT_DOUBLE_EQ(run.ValueOrDie().omega, 16.0 + i);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  EXPECT_EQ(ambient.alloc_policy(), nvram::AllocPolicy::kAllDram);
  EXPECT_DOUBLE_EQ(ambient.config().omega, 2.5);

  ambient.SetAllocPolicy(prev_policy);
  cfg.omega = prev_omega;
  ambient.SetConfig(cfg);
}

// Regression test for the weighted-view race: 8 threads hammer a weighted
// algorithm through Engine::Submit on an unweighted graph. All runs of one
// seed must agree (a view replaced by a different-seed run stays whole for
// the runs still reading it).
TEST(Concurrency, EngineWeightedTwinSynthesisIsRaceFree) {
  Engine engine(SharedGraph());
  ASSERT_FALSE(engine.graph().weighted());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::vector<std::future<Result<RunReport>>>> futures(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RunParams params;
          params.source = 1;
          // Two seeds interleave across threads: the snapshot's memo must
          // serve both without breaking either's in-flight runs.
          params.weight_seed = (t % 2 == 0) ? 7 : 8;
          futures[t].push_back(engine.Submit("bellman-ford", params));
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  std::vector<uint64_t> seed7_sums, seed8_sums;
  for (int t = 0; t < kThreads; ++t) {
    for (auto& f : futures[t]) {
      auto run = f.get();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const auto& dist = std::get<std::vector<uint64_t>>(
          run.ValueOrDie().output);
      uint64_t sum = 0;
      for (uint64_t d : dist) {
        if (d != ~uint64_t{0}) sum += d;
      }
      (t % 2 == 0 ? seed7_sums : seed8_sums).push_back(sum);
    }
  }
  // All runs of one seed agree with each other and with a fresh serial run.
  auto serial7 = engine.Run("bellman-ford", {.source = 1, .weight_seed = 7});
  ASSERT_TRUE(serial7.ok());
  const auto& serial_dist =
      std::get<std::vector<uint64_t>>(serial7.ValueOrDie().output);
  uint64_t serial_sum = 0;
  for (uint64_t d : serial_dist) {
    if (d != ~uint64_t{0}) serial_sum += d;
  }
  for (uint64_t s : seed7_sums) EXPECT_EQ(s, serial_sum);
  for (size_t i = 1; i < seed8_sums.size(); ++i) {
    EXPECT_EQ(seed8_sums[i], seed8_sums[0]);
  }
  // Different weights genuinely produce different distances.
  ASSERT_FALSE(seed8_sums.empty());
  EXPECT_NE(seed8_sums[0], serial_sum);
}

// The QueryService's queue is bounded: submissions beyond capacity block
// (rather than grow the queue) and every accepted query still completes.
TEST(Concurrency, QueryServiceDrainsBoundedQueue) {
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 2;
  options.queue_capacity = 4;
  QueryService service(g, options);
  EXPECT_EQ(service.sessions(), 2);
  EXPECT_EQ(service.queue_capacity(), 4u);

  RunContext ctx;
  std::vector<std::future<Result<RunReport>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service.Submit(i % 2 == 0 ? "bfs" : "kcore", ctx,
                                     {.source = 0}));
    EXPECT_LE(service.pending(), options.queue_capacity);
  }
  for (auto& f : futures) {
    auto run = f.get();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run.ValueOrDie().cost.nvram_reads, 0u);
  }

  service.Shutdown();
  auto rejected = service.Submit("bfs", ctx).get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
}

// Unknown algorithms and invalid params surface through the future, not
// the queue.
TEST(Concurrency, QueryServicePropagatesRunErrors) {
  Graph g = SharedGraph();
  QueryService service(g);
  RunContext ctx;
  auto unknown = service.Submit("no-such-algo", ctx).get();
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  RunParams params;
  params.source = g.num_vertices();
  auto oob = service.Submit("bfs", ctx, params).get();
  EXPECT_EQ(oob.status().code(), StatusCode::kInvalidArgument);
}

// The full semi-external path: one mmap-ed NVRAM-resident .bsadj image
// shared by concurrent sessions. Graph reads must charge as NVRAM for
// every run even under an all-DRAM policy (the mapping, not the policy,
// decides), and counters stay per-run exact.
TEST(Concurrency, ConcurrentSessionsOverOneMappedGraph) {
  Graph g = SharedGraph();
  std::string path = TempPath("concurrent_shared.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto engine = Engine::FromFile(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine.ValueOrDie().graph().nvram_resident());
  Engine& e = engine.ValueOrDie();
  e.context().policy = nvram::AllocPolicy::kAllDram;

  auto serial = e.Run("bfs", {.source = 0});
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial.ValueOrDie().graph_mapped);
  EXPECT_GT(serial.ValueOrDie().cost.nvram_reads, 0u)
      << "mapped graph reads must charge as NVRAM under all-dram policy";

  std::vector<std::future<Result<RunReport>>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(e.Submit("bfs", {.source = 0}));
  for (auto& f : futures) {
    auto run = f.get();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectTotalsEq(run.ValueOrDie().cost, serial.ValueOrDie().cost,
                   "mapped bfs");
  }
}

}  // namespace
}  // namespace sage
