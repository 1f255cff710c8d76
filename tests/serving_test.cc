// Serving-layer suite: the epoch-keyed result cache (hit/miss/parity,
// canonicalization, LRU byte budget, invalidation on epoch bump), tenant
// admission quotas and priorities, deadline/cancellation propagation, and
// the latency histogram's bucket math.
//
// The cache-parity tests lean on the same determinism property as the
// concurrency suite: at scheduler width 1 an algorithm's report is a pure
// function of (graph, params), so a cached replay must match a fresh run
// bit for bit - summary, PSAM counters, and output alike.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sage.h"

namespace sage {
namespace {

Graph SharedGraph() { return RmatGraph(10, 6000, /*seed=*/3); }

// ---------------------------------------------------------------------------
// Test algorithms. Registered once per process; the registry is process-
// wide but each suite is its own executable, so the 18-algorithm pins in
// api_test/concurrency_test are unaffected.

// test-gate: blocks until the test opens the gate, so a session thread can
// be parked deterministically while the queue fills behind it.
std::atomic<int> g_gate_entered{0};
std::atomic<bool> g_gate_open{false};

// test-order: appends its seed to a shared log, recording dequeue order.
std::mutex g_order_mu;
std::vector<uint64_t> g_order;

// test-spin: polls CheckInterrupt like an edgeMap round boundary until
// interrupted (deadline/cancel) or a safety bound trips.
AlgoOutput SpinUntilInterrupted(const Graph&, const RunContext&,
                                const RunParams&) {
  const auto bound = std::chrono::steady_clock::now() +
                     std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < bound) {
    nvram::ExecutionContext::Current().CheckInterrupt();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::vector<uint64_t>{0};  // Safety bound: interrupt never fired.
}

void RegisterServingTestAlgorithms() {
  static const bool registered = [] {
    auto& registry = AlgorithmRegistry::Get();
    Status gate = registry.Register(
        AlgorithmInfo{.name = "test-gate",
                      .table1_row = "TestGate",
                      .description = "test: parks until the gate opens"},
        [](const Graph&, const RunContext&, const RunParams&) -> AlgoOutput {
          g_gate_entered.fetch_add(1);
          while (!g_gate_open.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return std::vector<uint64_t>{1};
        },
        [](const AlgoOutput&) { return std::string("gate"); });
    Status order = registry.Register(
        AlgorithmInfo{.name = "test-order",
                      .table1_row = "TestOrder",
                      .params_used = kParamSeed,
                      .description = "test: records dequeue order"},
        [](const Graph&, const RunContext&, const RunParams& params)
            -> AlgoOutput {
          std::lock_guard<std::mutex> lock(g_order_mu);
          g_order.push_back(params.seed);
          return std::vector<uint64_t>{params.seed};
        },
        [](const AlgoOutput&) { return std::string("order"); });
    Status spin = registry.Register(
        AlgorithmInfo{.name = "test-spin",
                      .table1_row = "TestSpin",
                      .description = "test: spins until interrupted"},
        SpinUntilInterrupted,
        [](const AlgoOutput&) { return std::string("spin"); });
    return gate.ok() && order.ok() && spin.ok();
  }();
  ASSERT_TRUE(registered);
}

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

// ---------------------------------------------------------------------------
// Result cache through the engine.

// A repeat submission hits the cache and replays the original report bit-
// identically: summary, PSAM counters, peak DRAM, and output. Width is
// pinned to 1 so the fresh run is strictly deterministic - any difference
// is a corrupt cache entry, not scheduling noise.
TEST(Serving, CacheHitReplaysBitIdenticalReport) {
  Scheduler::Reset(1);
  Engine engine(SharedGraph());
  QueryService::Options options;
  options.cache_bytes = 16 << 20;
  engine.service(options);

  RunContext ctx = engine.context();
  RunParams params;
  params.source = 1;
  auto fresh = engine.Submit("bfs", params, ctx, "default").get();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh.ValueOrDie().cache_hit);

  auto cached = engine.Submit("bfs", params, ctx, "default").get();
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const RunReport& a = fresh.ValueOrDie();
  const RunReport& b = cached.ValueOrDie();
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.graph_epoch, b.graph_epoch);
  ExpectTotalsEq(a.cost, b.cost, "cached bfs");
  EXPECT_EQ(a.peak_intermediate_bytes, b.peak_intermediate_bytes);
  EXPECT_EQ(std::get<std::vector<vertex_id>>(a.output),
            std::get<std::vector<vertex_id>>(b.output));

  const ServingCounters counters = engine.service().counters();
  EXPECT_EQ(counters.submitted, 2u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.cache_hits, 1u);
  const ResultCacheStats stats = engine.service().cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  // Both queries (fresh + hit) produced reports, so both are in the
  // latency histogram and the stats document reflects the hit.
  EXPECT_EQ(engine.service().latency().count, 2u);
  EXPECT_NE(engine.service().StatsJson().find("\"cache_hits\": 1"),
            std::string::npos);
  Scheduler::Reset(0);
}

// An epoch bump between repeats must miss (the key embeds the epoch) and
// the retired epoch's entries must be dropped by the Engine's retire
// listener - a stale image's results can never be served again.
TEST(Serving, CacheEntriesInvalidateOnEpochBump) {
  Engine engine(SharedGraph());
  QueryService::Options options;
  options.cache_bytes = 16 << 20;
  engine.service(options);

  RunParams params;
  params.source = 1;
  auto first = engine.Submit("bfs", params, engine.context(), "default").get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().graph_epoch, 0u);

  auto applied = engine.ApplyUpdates({EdgeUpdate::Insert(1, 1000)});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueOrDie().epoch, 1u);
  // The first query's snapshot release (and with it epoch 0's retirement)
  // can trail its future by a beat; wait for it so the invalidation count
  // below is deterministic.
  engine.epochs().WaitForRetiredBelow(1);

  auto second = engine.Submit("bfs", params, engine.context(), "default").get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.ValueOrDie().cache_hit)
      << "epoch bump must invalidate the cached epoch-0 result";
  EXPECT_EQ(second.ValueOrDie().graph_epoch, 1u);

  const ResultCacheStats stats = engine.service().cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.invalidations, 1u)
      << "retiring epoch 0 must drop its cache entries";

  // The epoch-1 entry is live: a repeat hits it.
  auto third = engine.Submit("bfs", params, engine.context(), "default").get();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.ValueOrDie().cache_hit);
  EXPECT_EQ(third.ValueOrDie().summary, second.ValueOrDie().summary);
}

// Canonicalization folds in only the params the algorithm declares it
// consumes: irrelevant knobs collapse to one key; consumed knobs, the
// source, and the epoch split keys.
TEST(Serving, CacheKeyCanonicalization) {
  const AlgorithmInfo* bfs = AlgorithmRegistry::Get().Find("bfs");
  const AlgorithmInfo* pagerank = AlgorithmRegistry::Get().Find("pagerank");
  ASSERT_NE(bfs, nullptr);
  ASSERT_NE(pagerank, nullptr);
  RunContext ctx;
  RunParams params;
  params.source = 5;

  // BFS ignores the pagerank tolerance, the randomized-algorithm seed, and
  // serving-only knobs (deadline, cancel): all collapse to the base key.
  const std::string base = ResultCache::CanonicalKey(0, *bfs, ctx, params);
  RunParams tweaked = params;
  tweaked.pagerank_epsilon = 0.5;
  tweaked.seed = 42;
  tweaked.set_cover_eps = 0.9;
  EXPECT_EQ(ResultCache::CanonicalKey(0, *bfs, ctx, tweaked), base);
  RunContext deadline_ctx = ctx;
  deadline_ctx.deadline_ms = 250;
  deadline_ctx.cancel = std::make_shared<CancelToken>();
  EXPECT_EQ(ResultCache::CanonicalKey(0, *bfs, deadline_ctx, params), base);

  // Consumed inputs split the key: source (needs_source), epoch, policy.
  RunParams other_source = params;
  other_source.source = 6;
  EXPECT_NE(ResultCache::CanonicalKey(0, *bfs, ctx, other_source), base);
  EXPECT_NE(ResultCache::CanonicalKey(1, *bfs, ctx, params), base);
  RunContext dram_ctx = ctx;
  dram_ctx.policy = nvram::AllocPolicy::kAllDram;
  EXPECT_NE(ResultCache::CanonicalKey(0, *bfs, dram_ctx, params), base);

  // Every execution setting that can change a result or its counters
  // splits the key too: edgeMap direction, sparse variant, graph layout.
  RunContext mode_ctx = ctx;
  mode_ctx.edge_map.mode = TraversalMode::kSparseOnly;
  EXPECT_NE(ResultCache::CanonicalKey(0, *bfs, mode_ctx, params), base);
  RunContext variant_ctx = ctx;
  variant_ctx.edge_map.sparse_variant = SparseVariant::kBlocked;
  EXPECT_NE(ResultCache::CanonicalKey(0, *bfs, variant_ctx, params), base);
  RunContext layout_ctx = ctx;
  layout_ctx.graph_layout = nvram::GraphLayout::kInterleaved;
  EXPECT_NE(ResultCache::CanonicalKey(0, *bfs, layout_ctx, params), base);

  // PageRank declares its tolerance, so there it does split the key.
  const std::string pr = ResultCache::CanonicalKey(0, *pagerank, ctx, params);
  RunParams pr_tweaked = params;
  pr_tweaked.pagerank_epsilon = 0.5;
  EXPECT_NE(ResultCache::CanonicalKey(0, *pagerank, ctx, pr_tweaked), pr);
  // ...and PageRank ignores the source (no needs_source).
  EXPECT_EQ(ResultCache::CanonicalKey(0, *pagerank, ctx, other_source), pr);
}

RunReport ReportWithPayload(const std::string& name, size_t words) {
  RunReport report;
  report.algorithm = name;
  report.summary = name;
  report.output = std::vector<uint64_t>(words, 7);
  return report;
}

// LRU over the byte budget: a lookup refreshes recency, so inserting past
// the budget evicts the least recently *used* entry, not insertion order.
// Oversized entries are not admitted at all.
TEST(Serving, ResultCacheEvictsLruUnderByteBudget) {
  const RunReport payload = ReportWithPayload("a", 1000);
  const uint64_t entry_bytes = ResultCache::EstimateBytes(payload);
  ResultCache cache(2 * entry_bytes + entry_bytes / 2);  // room for two

  cache.Insert("a", 0, ReportWithPayload("a", 1000));
  cache.Insert("b", 0, ReportWithPayload("b", 1000));
  RunReport out;
  EXPECT_TRUE(cache.Lookup("a", &out));  // refresh: "b" is now the LRU tail
  cache.Insert("c", 0, ReportWithPayload("c", 1000));

  EXPECT_FALSE(cache.Lookup("b", &out)) << "LRU tail must be evicted";
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_EQ(out.summary, "a");
  EXPECT_TRUE(cache.Lookup("c", &out));
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, cache.max_bytes());

  // An entry bigger than the whole budget is rejected outright.
  cache.Insert("huge", 0, ReportWithPayload("huge", 1u << 20));
  EXPECT_FALSE(cache.Lookup("huge", &out));

  // DropEpoch removes only the named epoch's entries.
  cache.Insert("e1", 1, ReportWithPayload("e1", 10));
  cache.DropEpoch(1);
  EXPECT_FALSE(cache.Lookup("e1", &out));
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_GE(cache.stats().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// Tenants: quotas, priorities.

// A quota tenant is rejected with ResourceExhausted once max_queued of its
// requests are waiting - never blocked - while already-admitted requests
// still complete.
TEST(Serving, QuotaTenantRejectsAboveMaxQueued) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 1;
  options.queue_capacity = 16;
  QueryService service(g, options);
  service.RegisterTenant("metered", {.max_queued = 2});

  g_gate_open.store(false);
  g_gate_entered.store(0);
  RunContext ctx;
  auto gate = service.Submit("test-gate", ctx);
  while (g_gate_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The single session is parked: two metered submissions queue, the third
  // must be rejected immediately (not block).
  RunParams params;
  params.source = 1;
  auto q1 = service.Submit("bfs", ctx, params, nullptr, "metered");
  auto q2 = service.Submit("kcore", ctx, params, nullptr, "metered");
  const auto reject_start = std::chrono::steady_clock::now();
  auto q3 = service.Submit("bfs", ctx, params, nullptr, "metered");
  const double reject_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    reject_start)
          .count();
  auto rejected = q3.get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(reject_seconds, 1.0) << "quota rejection must not block";

  g_gate_open.store(true);
  EXPECT_TRUE(gate.get().ok());
  EXPECT_TRUE(q1.get().ok());
  EXPECT_TRUE(q2.get().ok());
  EXPECT_EQ(service.counters().rejected, 1u);
  EXPECT_NE(service.StatsJson().find("\"metered\""), std::string::npos);
}

// Higher-priority tenants dequeue first; FIFO within a priority class.
TEST(Serving, PriorityTenantDequeuesFirst) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 1;
  options.queue_capacity = 16;
  QueryService service(g, options);
  service.RegisterTenant("batch", {.priority = 0});
  service.RegisterTenant("interactive", {.priority = 10});

  g_gate_open.store(false);
  g_gate_entered.store(0);
  {
    std::lock_guard<std::mutex> lock(g_order_mu);
    g_order.clear();
  }
  RunContext ctx;
  auto gate = service.Submit("test-gate", ctx);
  while (g_gate_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queued while the session is parked: batch #1, batch #2, then an
  // interactive request. The interactive one must run first.
  RunParams p1, p2, p3;
  p1.seed = 1;
  p2.seed = 2;
  p3.seed = 3;
  auto b1 = service.Submit("test-order", ctx, p1, nullptr, "batch");
  auto b2 = service.Submit("test-order", ctx, p2, nullptr, "batch");
  auto hi = service.Submit("test-order", ctx, p3, nullptr, "interactive");

  g_gate_open.store(true);
  EXPECT_TRUE(gate.get().ok());
  EXPECT_TRUE(b1.get().ok());
  EXPECT_TRUE(b2.get().ok());
  EXPECT_TRUE(hi.get().ok());
  std::lock_guard<std::mutex> lock(g_order_mu);
  ASSERT_EQ(g_order.size(), 3u);
  EXPECT_EQ(g_order[0], 3u) << "interactive (priority 10) must run first";
  EXPECT_EQ(g_order[1], 1u) << "FIFO within the batch priority class";
  EXPECT_EQ(g_order[2], 2u);
}

// A max_in_flight cap holds a tenant's extra requests in the queue while
// other tenants' work proceeds.
TEST(Serving, InFlightCapThrottlesTenant) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 2;
  QueryService service(g, options);
  service.RegisterTenant("capped", {.max_in_flight = 1});

  g_gate_open.store(false);
  g_gate_entered.store(0);
  RunContext ctx;
  // Both capped submissions target the gate; the cap admits one into a
  // session and holds the other, leaving the second session free.
  auto c1 = service.Submit("test-gate", ctx, {}, nullptr, "capped");
  auto c2 = service.Submit("test-gate", ctx, {}, nullptr, "capped");
  while (g_gate_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(g_gate_entered.load(), 1)
      << "max_in_flight=1 must keep the second request queued";

  // The free session still serves other tenants around the capped queue.
  RunParams params;
  params.source = 1;
  auto other = service.Submit("bfs", ctx, params);
  EXPECT_TRUE(other.get().ok());
  EXPECT_EQ(g_gate_entered.load(), 1);

  g_gate_open.store(true);
  EXPECT_TRUE(c1.get().ok());
  EXPECT_TRUE(c2.get().ok());
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation.

// A deadline expiring mid-run interrupts the kernel at its next round
// boundary and surfaces DeadlineExceeded promptly.
TEST(Serving, DeadlineExceededMidRun) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService service(g);

  RunContext ctx;
  ctx.deadline_ms = 50;
  const auto start = std::chrono::steady_clock::now();
  auto run = service.Submit("test-spin", ctx).get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  EXPECT_LT(elapsed, 10.0) << "an expired deadline must interrupt the run, "
                              "not wait for it to finish";
  EXPECT_EQ(service.counters().deadline_misses, 1u);
  EXPECT_EQ(service.counters().completed, 0u);
}

// RequestCancel() stops a running query cooperatively with a Cancelled
// status.
TEST(Serving, CancelTokenStopsRunningQuery) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService service(g);

  RunContext ctx;
  ctx.cancel = std::make_shared<CancelToken>();
  auto future = service.Submit("test-spin", ctx);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.cancel->RequestCancel();
  auto run = future.get();
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
      << run.status().ToString();
  EXPECT_EQ(service.counters().cancelled, 1u);
}

// A deadline that expires while the request is still queued is rejected at
// dequeue without executing the kernel (queue wait counts against the
// deadline).
TEST(Serving, DeadlineExpiredInQueueSkipsExecution) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 1;
  QueryService service(g, options);

  g_gate_open.store(false);
  g_gate_entered.store(0);
  {
    std::lock_guard<std::mutex> lock(g_order_mu);
    g_order.clear();
  }
  RunContext ctx;
  auto gate = service.Submit("test-gate", ctx);
  while (g_gate_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RunContext deadline_ctx;
  deadline_ctx.deadline_ms = 1;
  RunParams params;
  params.seed = 77;
  auto doomed = service.Submit("test-order", deadline_ctx, params);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  g_gate_open.store(true);
  EXPECT_TRUE(gate.get().ok());
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kDeadlineExceeded);
  std::lock_guard<std::mutex> lock(g_order_mu);
  EXPECT_TRUE(g_order.empty())
      << "an expired request must not execute its kernel";
}

// Queue wait and run share one deadline budget: a request that waited
// about 0.7 D in the queue has about 0.3 D left to run, not a fresh D.
// The margins hold on a loaded host: the run must end within 0.8 D of the
// gate opening, while a fresh budget would spin for at least D.
TEST(Serving, QueueWaitCountsAgainstTheRunsDeadline) {
  RegisterServingTestAlgorithms();
  Graph g = SharedGraph();
  QueryService::Options options;
  options.sessions = 1;
  QueryService service(g, options);

  g_gate_open.store(false);
  g_gate_entered.store(0);
  auto gate = service.Submit("test-gate", RunContext{});
  while (g_gate_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  constexpr double kDeadlineMs = 1000;
  RunContext ctx;
  ctx.deadline_ms = kDeadlineMs;
  auto spin = service.Submit("test-spin", ctx);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  const auto opened = std::chrono::steady_clock::now();
  g_gate_open.store(true);
  EXPECT_TRUE(gate.get().ok());
  auto run = spin.get();
  const double after_open_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - opened)
          .count();
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  EXPECT_LT(after_open_ms, 0.8 * kDeadlineMs)
      << "the run got a fresh budget instead of what the queue left";
}

// ---------------------------------------------------------------------------
// Latency histogram bucket math.

TEST(Serving, HistogramBucketMathIsExactBelowSixteen) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<uint32_t>(v)), v);
  }
}

// Every bucket's lower bound is <= its members and the next bucket's lower
// bound is above them: the bucket function and its inverse agree, and the
// relative bucket width stays within one sub-bucket (~6%).
TEST(Serving, HistogramBucketBoundsAreConsistent) {
  const std::vector<uint64_t> samples = {
      16, 17, 31, 32, 33, 100, 1000, 999'983, 1'000'000, 123'456'789,
      1'000'000'000, uint64_t{1} << 40, ~uint64_t{0}};
  for (uint64_t v : samples) {
    const uint32_t bucket = LatencyHistogram::BucketFor(v);
    ASSERT_LT(bucket, LatencyHistogram::kNumBuckets) << v;
    const uint64_t lower = LatencyHistogram::BucketLowerBound(bucket);
    EXPECT_LE(lower, v) << v;
    if (bucket + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_GT(LatencyHistogram::BucketLowerBound(bucket + 1), v) << v;
    }
    // Relative error bound: bucket width is lower/16 above the exact range.
    EXPECT_LE(v - lower, std::max<uint64_t>(1, lower / 16)) << v;
  }
  // Known values pin the formula itself.
  EXPECT_EQ(LatencyHistogram::BucketFor(16), 16u);
  EXPECT_EQ(LatencyHistogram::BucketFor(31), 31u);
  EXPECT_EQ(LatencyHistogram::BucketFor(32), 32u);
  EXPECT_EQ(LatencyHistogram::BucketFor(33), 32u);  // 2-wide sub-buckets
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(32), 32u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1000), 111u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(111), 992u);
}

// Percentiles on a known distribution: 100 samples at ~1ms and one at 1s
// put p50/p95/p99 in the 1ms bucket and the max at exactly 1s.
TEST(Serving, HistogramPercentilesOnKnownDistribution) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(1'000'000);
  histogram.Record(1'000'000'000);
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_GE(snap.p50_seconds, 0.0009);
  EXPECT_LE(snap.p50_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snap.p50_seconds, snap.p99_seconds)
      << "99th of 101 samples still lands in the 1ms bucket";
  EXPECT_DOUBLE_EQ(snap.max_seconds, 1.0);
  EXPECT_NE(snap.ToJson().find("\"count\": 101"), std::string::npos);
}

// Empty histograms snapshot to all zeros (no division by zero, no junk).
TEST(Serving, HistogramEmptySnapshotIsZero) {
  LatencyHistogram histogram;
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p50_seconds, 0.0);
  EXPECT_EQ(snap.max_seconds, 0.0);
}

// Per-tenant histograms and counters are isolated from each other.
TEST(Serving, PerTenantLatencyIsIsolated) {
  Graph g = SharedGraph();
  QueryService service(g);
  RunContext ctx;
  RunParams params;
  params.source = 1;
  ASSERT_TRUE(service.Submit("bfs", ctx, params, nullptr, "alpha").get().ok());
  ASSERT_TRUE(service.Submit("bfs", ctx, params, nullptr, "alpha").get().ok());
  ASSERT_TRUE(service.Submit("kcore", ctx, params, nullptr, "beta").get().ok());
  EXPECT_EQ(service.tenant_latency("alpha").count, 2u);
  EXPECT_EQ(service.tenant_latency("beta").count, 1u);
  EXPECT_EQ(service.tenant_latency("nobody").count, 0u);
  EXPECT_EQ(service.latency().count, 3u);
}

}  // namespace
}  // namespace sage
