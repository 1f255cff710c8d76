// Tests for the dynamic-update subsystem (graph/delta.h, graph/epoch.h,
// Engine::ApplyUpdates / Engine::Compact): the sharded DeltaLog, the
// copy-on-write DeltaOverlay, the overlay-backed Graph accessors and their
// DRAM charging, epoch pinning/retirement, and the acceptance property that
// the overlay view and the compacted graph are observably identical -
// bit-identical summaries and PSAM totals for the algorithms that read them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/sage.h"

namespace sage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Graph SharedGraph() { return RmatGraph(10, 6000, /*seed=*/3); }

// Path 0-1-2, path 3-4, isolated 5 (symmetric, unweighted, m = 6).
Graph PathGraph() {
  return GraphBuilder::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
}

std::vector<vertex_id> NeighborList(const Graph& g, vertex_id v) {
  auto span = g.NeighborsUncharged(v);
  return {span.begin(), span.end()};
}

// Same vertices, lists and weights, edge for edge.
void ExpectSameWeightedEdges(const Graph& a, const Graph& b,
                             const std::string& label) {
  ASSERT_TRUE(a.weighted()) << label;
  ASSERT_TRUE(b.weighted()) << label;
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (vertex_id v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(NeighborList(a, v), NeighborList(b, v)) << label << " v=" << v;
    for (vertex_id i = 0; i < a.degree_uncharged(v); ++i) {
      ASSERT_EQ(a.weight_at(v, i), b.weight_at(v, i))
          << label << " v=" << v << " i=" << i;
    }
  }
}

// The weights standing in for the base's in a weighted view.
std::shared_ptr<const std::vector<weight_t>> SharedWeights(const Graph& view) {
  const auto* layered =
      dynamic_cast<const OverlayGraphStorage*>(view.storage().get());
  EXPECT_NE(layered, nullptr);
  return layered == nullptr ? nullptr : layered->shared_weights();
}

std::shared_ptr<const DeltaOverlay> Apply(
    const Graph& base, const std::shared_ptr<const DeltaOverlay>& prev,
    std::vector<EdgeUpdate> updates) {
  auto overlay = ApplyUpdateBatch(base, prev, updates);
  EXPECT_TRUE(overlay.ok()) << overlay.status().ToString();
  return overlay.ValueOrDie();
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
// DeltaLog
// ---------------------------------------------------------------------------

TEST(DeltaLog, AppendDrainPreservesSubmissionOrder) {
  DeltaLog log;
  // Endpoints chosen to land in different shards (sharded by u).
  std::vector<EdgeUpdate> first = {EdgeUpdate::Insert(1, 2),
                                   EdgeUpdate::Insert(17, 3),
                                   EdgeUpdate::Remove(5, 6)};
  std::vector<EdgeUpdate> second = {EdgeUpdate::Insert(2, 9)};
  EXPECT_EQ(log.Append(first), 3u);
  EXPECT_EQ(log.Append(second), 4u);
  EXPECT_EQ(log.pending(), 4u);

  uint64_t last = 0;
  std::vector<EdgeUpdate> drained = log.Drain(&last);
  EXPECT_EQ(last, 4u);
  EXPECT_EQ(log.pending(), 0u);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].u, 1u);
  EXPECT_EQ(drained[1].u, 17u);
  EXPECT_EQ(drained[2].u, 5u);
  EXPECT_TRUE(drained[2].remove);
  EXPECT_EQ(drained[3].u, 2u);
}

TEST(DeltaLog, DrainOfEmptyLogLeavesLastSeqUntouched) {
  DeltaLog log;
  uint64_t last = 42;
  EXPECT_TRUE(log.Drain(&last).empty());
  EXPECT_EQ(last, 42u);
  EXPECT_EQ(log.Append({}), 0u);
}

TEST(DeltaLog, ConcurrentAppendsAllArriveInPerThreadOrder) {
  DeltaLog log;
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kPerThread = 100;
  {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, t] {
        for (uint32_t i = 0; i < kPerThread; ++i) {
          // Tag each update with (thread, index) via (u, w) so the drain
          // can check per-thread ordering.
          EdgeUpdate update = EdgeUpdate::Insert(t, 0, /*w=*/i);
          log.Append(std::span<const EdgeUpdate>(&update, 1));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  std::vector<EdgeUpdate> drained = log.Drain();
  ASSERT_EQ(drained.size(), size_t{kThreads} * kPerThread);
  std::vector<uint32_t> next(kThreads, 0);
  for (const EdgeUpdate& e : drained) {
    ASSERT_LT(e.u, kThreads);
    EXPECT_EQ(e.w, next[e.u]) << "thread " << e.u
                              << " updates drained out of order";
    ++next[e.u];
  }
  for (uint32_t t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

// ---------------------------------------------------------------------------
// DeltaOverlay / ApplyUpdateBatch
// ---------------------------------------------------------------------------

TEST(DeltaOverlay, InsertOnSymmetricGraphAppliesBothDirections) {
  Graph base = PathGraph();
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Insert(0, 3)});
  EXPECT_EQ(overlay->num_edges(), base.num_edges() + 2);
  EXPECT_EQ(overlay->delta_edges(), 2u);
  EXPECT_EQ(overlay->touched_vertices(), 2u);
  EXPECT_TRUE(overlay->touched(0));
  EXPECT_TRUE(overlay->touched(3));
  EXPECT_FALSE(overlay->touched(1));
  ASSERT_NE(overlay->Find(0), nullptr);
  EXPECT_EQ(overlay->Find(0)->neighbors, (std::vector<vertex_id>{1, 3}));
  EXPECT_EQ(overlay->Find(3)->neighbors, (std::vector<vertex_id>{0, 4}));
  EXPECT_EQ(overlay->Find(1), nullptr);
}

TEST(DeltaOverlay, SelfLoopOccupiesOneDirectedSlot) {
  Graph base = PathGraph();
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Insert(2, 2)});
  EXPECT_EQ(overlay->num_edges(), base.num_edges() + 1);
  EXPECT_EQ(overlay->delta_edges(), 1u);
  EXPECT_EQ(overlay->Find(2)->neighbors, (std::vector<vertex_id>{1, 2}));
}

TEST(DeltaOverlay, RemoveDeletesBothDirections) {
  Graph base = PathGraph();
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Remove(1, 2)});
  EXPECT_EQ(overlay->num_edges(), base.num_edges() - 2);
  EXPECT_EQ(overlay->delta_edges(), 2u);
  EXPECT_EQ(overlay->Find(1)->neighbors, (std::vector<vertex_id>{0}));
  EXPECT_TRUE(overlay->Find(2)->neighbors.empty());
}

TEST(DeltaOverlay, RemoveOfAbsentEdgeIsNoop) {
  Graph base = PathGraph();
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Remove(0, 5)});
  EXPECT_EQ(overlay->num_edges(), base.num_edges());
  EXPECT_EQ(overlay->delta_edges(), 0u);
  // The touched vertices keep their base lists verbatim.
  EXPECT_EQ(overlay->Find(0)->neighbors, NeighborList(base, 0));
  EXPECT_TRUE(overlay->Find(5)->neighbors.empty());
}

TEST(DeltaOverlay, InsertOfExistingEdgeIsWeightUpsertNotStructural) {
  Graph base = GraphBuilder::FromWeightedEdges(3, {{0, 1, 5}, {1, 2, 7}});
  ASSERT_TRUE(base.weighted());
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Insert(0, 1, /*w=*/9)});
  EXPECT_EQ(overlay->num_edges(), base.num_edges());
  EXPECT_EQ(overlay->delta_edges(), 0u) << "weight upserts are not structural";
  const DeltaOverlay::VertexList* l0 = overlay->Find(0);
  ASSERT_NE(l0, nullptr);
  ASSERT_EQ(l0->weights.size(), 1u);
  EXPECT_EQ(l0->weights[0], 9u);
  // Both directions of the symmetric edge carry the new weight.
  const DeltaOverlay::VertexList* l1 = overlay->Find(1);
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->neighbors, (std::vector<vertex_id>{0, 2}));
  EXPECT_EQ(l1->weights, (std::vector<weight_t>{9, 7}));
}

TEST(DeltaOverlay, RemoveDeletesAllParallelDuplicates) {
  // A directed base with a duplicated (0, 1) edge: a remove deletes every
  // matching slot, not just the first.
  BuildOptions options;
  options.symmetrize = false;
  options.remove_duplicates = false;
  auto built = GraphBuilder::Build(3, {{0, 1, 1}, {0, 1, 1}, {1, 2, 1}},
                                   options);
  ASSERT_TRUE(built.ok());
  Graph base = built.ValueOrDie();
  ASSERT_EQ(base.num_edges(), 3u);
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Remove(0, 1)});
  EXPECT_EQ(overlay->num_edges(), 1u);
  EXPECT_EQ(overlay->delta_edges(), 2u) << "both duplicate slots count";
  EXPECT_TRUE(overlay->Find(0)->neighbors.empty());
}

TEST(DeltaOverlay, OutOfRangeUpdateRejectsWholeBatch) {
  Graph base = PathGraph();
  auto overlay = ApplyUpdateBatch(
      base, nullptr, std::vector<EdgeUpdate>{EdgeUpdate::Insert(0, 99)});
  EXPECT_EQ(overlay.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaOverlay, BatchesComposeCopyOnWrite) {
  Graph base = PathGraph();
  auto first = Apply(base, nullptr, {EdgeUpdate::Insert(0, 3)});
  auto second = Apply(base, first, {EdgeUpdate::Remove(0, 1)});
  // The first overlay is untouched (old epochs keep serving their view) ...
  EXPECT_EQ(first->Find(0)->neighbors, (std::vector<vertex_id>{1, 3}));
  EXPECT_EQ(first->delta_edges(), 2u);
  // ... while the second composes both batches and accumulates the delta.
  EXPECT_EQ(second->Find(0)->neighbors, (std::vector<vertex_id>{3}));
  EXPECT_EQ(second->Find(1)->neighbors, (std::vector<vertex_id>{2}));
  EXPECT_EQ(second->num_edges(), base.num_edges());
  EXPECT_EQ(second->delta_edges(), 4u);
}

// ---------------------------------------------------------------------------
// OverlayGraph: the merged view behind the GraphStorage seam
// ---------------------------------------------------------------------------

TEST(OverlayGraph, AccessorsReadMergedView) {
  Graph base = PathGraph();
  auto overlay =
      Apply(base, nullptr, {EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(4, 5)});
  Graph g = MakeOverlayGraph(base, overlay);
  EXPECT_TRUE(g.has_overlay());
  EXPECT_EQ(g.delta_edges(), 4u);
  EXPECT_EQ(g.num_vertices(), base.num_vertices());
  EXPECT_EQ(g.num_edges(), base.num_edges() + 4);

  // Touched vertices read the merged DRAM lists.
  EXPECT_EQ(g.degree_uncharged(0), 2u);
  EXPECT_EQ(NeighborList(g, 0), (std::vector<vertex_id>{1, 3}));
  EXPECT_EQ(g.NeighborAt(4, 1), 5u);
  EXPECT_EQ(g.weight_at(0, 1), 1u);
  // Untouched vertices keep reading the base CSR.
  EXPECT_EQ(g.degree_uncharged(1), 2u);
  EXPECT_EQ(NeighborList(g, 1), NeighborList(base, 1));

  std::vector<std::pair<vertex_id, vertex_id>> seen;
  g.MapNeighbors(3, [&](vertex_id v, vertex_id u, weight_t) {
    seen.emplace_back(v, u);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<vertex_id, vertex_id>>{{3, 0},
                                                                {3, 4}}));
  bool all = g.MapNeighborsWhile(0, [](vertex_id, vertex_id u, weight_t) {
    return u != 3;
  });
  EXPECT_FALSE(all);
}

TEST(OverlayGraph, FlattenMatchesOverlayView) {
  Graph base = AddRandomWeights(SharedGraph(), /*seed=*/5);
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(0, 900, 3), EdgeUpdate::Insert(17, 21, 8),
      EdgeUpdate::Remove(1, 2), EdgeUpdate::Insert(5, 5, 2)};
  Graph g = MakeOverlayGraph(base, Apply(base, nullptr, updates));
  Graph flat = FlattenOverlay(g);
  EXPECT_FALSE(flat.has_overlay());
  ASSERT_EQ(flat.num_vertices(), g.num_vertices());
  ASSERT_EQ(flat.num_edges(), g.num_edges());
  EXPECT_EQ(flat.symmetric(), g.symmetric());
  EXPECT_EQ(flat.weighted(), g.weighted());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(NeighborList(flat, v), NeighborList(g, v)) << "vertex " << v;
    for (vertex_id i = 0; i < g.degree_uncharged(v); ++i) {
      ASSERT_EQ(flat.weight_at(v, i), g.weight_at(v, i))
          << "vertex " << v << " slot " << i;
    }
  }
  // Flattening an overlay-free graph is the identity.
  EXPECT_EQ(FlattenOverlay(base).num_edges(), base.num_edges());
}

TEST(OverlayGraph, AlgorithmsSeeInsertedEdgesThroughEdgeMap) {
  Graph base = PathGraph();  // components {0,1,2}, {3,4}, {5}
  RunContext ctx;
  auto before = AlgorithmRegistry::Run("connectivity", base, ctx);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.ValueOrDie().summary, "components=3");

  auto overlay =
      Apply(base, nullptr, {EdgeUpdate::Insert(2, 3), EdgeUpdate::Insert(4, 5)});
  Graph g = MakeOverlayGraph(base, overlay);
  auto after = AlgorithmRegistry::Run("connectivity", g, ctx);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().summary, "components=1");

  auto bfs = AlgorithmRegistry::Run("bfs", g, ctx, {.source = 0});
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs.ValueOrDie().summary, "reached=6");
}

TEST(OverlayGraph, OverlaidReadsChargeDramWhileBaseChargesNvram) {
  Graph base = PathGraph();
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Insert(0, 3)});
  Graph g = MakeOverlayGraph(base, overlay);

  nvram::ExecutionContext exec;
  exec.InheritDeviceState(nvram::ExecutionContext::Default());
  exec.cost_model().SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);
  nvram::ScopedExecutionContext scope(exec);
  auto noop = [](vertex_id, vertex_id, weight_t) {};

  {
    nvram::CostScope scope_untouched;
    g.MapNeighbors(1, noop);  // untouched: base CSR, graph region
    nvram::CostTotals d = scope_untouched.Delta();
    EXPECT_EQ(d.nvram_reads, 1u + 2u) << "offset word + 2 neighbor words";
    EXPECT_EQ(d.dram_reads, 0u);
  }
  {
    nvram::CostScope scope_touched;
    g.MapNeighbors(0, noop);  // overlaid: DRAM list, same word count
    nvram::CostTotals d = scope_touched.Delta();
    EXPECT_EQ(d.dram_reads, 1u + 2u)
        << "overlaid list must charge DRAM with the base word formula";
    EXPECT_EQ(d.nvram_reads, 0u);
  }
  {
    nvram::CostScope scope_degree;
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(scope_degree.Delta().dram_reads, 1u);
  }

  // Full-sweep total reads match the compacted graph exactly; only the
  // DRAM/NVRAM split moves (by the overlaid words).
  Graph flat = FlattenOverlay(g);
  auto sweep = [&](const Graph& target) {
    nvram::CostScope scope_sweep;
    for (vertex_id v = 0; v < target.num_vertices(); ++v) {
      target.MapNeighbors(v, noop);
    }
    return scope_sweep.Delta();
  };
  nvram::CostTotals dg = sweep(g);
  nvram::CostTotals df = sweep(flat);
  EXPECT_EQ(dg.dram_reads + dg.nvram_reads, df.dram_reads + df.nvram_reads);
  EXPECT_GT(dg.dram_reads, 0u);
  EXPECT_EQ(df.dram_reads, 0u);
}

// ---------------------------------------------------------------------------
// DeltaIO: the text update-stream parser
// ---------------------------------------------------------------------------

TEST(DeltaIO, ParsesInsertsRemovesWeightsAndComments) {
  std::string path = TempPath("updates_ok.txt");
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "0 1\n"
        << "+ 2 3 7\n"
        << "- 4 5\n"
        << "% also a comment\n"
        << "\n"
        << "6 7 9\n";
  }
  auto parsed = ReadEdgeUpdates(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<EdgeUpdate>& u = parsed.ValueOrDie();
  ASSERT_EQ(u.size(), 4u);
  EXPECT_EQ(u[0].u, 0u);
  EXPECT_EQ(u[0].v, 1u);
  EXPECT_EQ(u[0].w, 1u);
  EXPECT_FALSE(u[0].remove);
  EXPECT_EQ(u[1].w, 7u);
  EXPECT_TRUE(u[2].remove);
  EXPECT_EQ(u[2].u, 4u);
  EXPECT_EQ(u[3].w, 9u);
}

TEST(DeltaIO, RejectsMissingAndMalformedFiles) {
  EXPECT_EQ(ReadEdgeUpdates(TempPath("no_such_updates.txt")).status().code(),
            StatusCode::kIOError);

  std::string garbage = TempPath("updates_bad.txt");
  {
    std::ofstream out(garbage);
    out << "0 1\n"
        << "not numbers\n";
  }
  auto parsed = ReadEdgeUpdates(garbage);
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(parsed.status().ToString().find("line 2"), std::string::npos);

  std::string trailing = TempPath("updates_trailing.txt");
  {
    std::ofstream out(trailing);
    out << "- 1 2 3\n";  // removes take no weight
  }
  EXPECT_EQ(ReadEdgeUpdates(trailing).status().code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

TEST(EpochManager, PinAdvanceRetireLifecycle) {
  // Declared before the manager: the current epoch retires from the
  // manager's destructor, which still fires the listener.
  std::vector<uint64_t> retired;
  EpochManager epochs(PathGraph());
  epochs.AddRetireListener([&](uint64_t e) { retired.push_back(e); });

  auto pin0 = epochs.Pin();
  EXPECT_EQ(pin0->epoch, 0u);
  EXPECT_EQ(epochs.current_epoch(), 0u);
  EXPECT_EQ(epochs.live_epochs(), 1u);

  Graph base = PathGraph();
  Graph next =
      MakeOverlayGraph(base, Apply(base, nullptr, {EdgeUpdate::Insert(0, 3)}));
  EXPECT_EQ(epochs.Advance(next, 2), 1u);
  EXPECT_EQ(epochs.current_epoch(), 1u);
  EXPECT_EQ(epochs.Pin()->delta_edges, 2u);
  // Epoch 0 is superseded but still pinned.
  EXPECT_EQ(epochs.live_epochs(), 2u);
  EXPECT_TRUE(retired.empty());

  pin0.reset();
  epochs.WaitForRetiredBelow(1);
  EXPECT_EQ(epochs.live_epochs(), 1u);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], 0u);
}

TEST(EpochManager, WaitersObserveRetireHooksAlreadyRun) {
  // The last pin drops on another thread, whose retire listeners are
  // slow; a waiter must not wake until both listeners (one stands for the
  // result cache's invalidation, in the Engine) have finished. The flags
  // outlive the manager, whose destructor retires epoch 1 the same way.
  std::atomic<bool> callback_done{false};
  std::atomic<bool> listener_done{false};
  EpochManager epochs(PathGraph());
  epochs.AddRetireListener([&](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    callback_done.store(true);
  });
  epochs.AddRetireListener([&](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener_done.store(true);
  });

  auto pin0 = epochs.Pin();
  epochs.Advance(PathGraph(), 0);
  std::thread reader([pin = std::move(pin0)]() mutable { pin.reset(); });
  epochs.WaitForRetiredBelow(1);
  EXPECT_TRUE(callback_done.load());
  EXPECT_TRUE(listener_done.load());
  EXPECT_EQ(epochs.live_epochs(), 1u);
  reader.join();
}

TEST(EpochManager, SnapshotOutlivesManager) {
  std::shared_ptr<const GraphSnapshot> pin;
  {
    EpochManager epochs(PathGraph());
    pin = epochs.Pin();
  }
  EXPECT_EQ(pin->epoch, 0u);
  EXPECT_EQ(pin->graph.num_edges(), 6u);
  pin.reset();  // retires cleanly against the outlived shared state
}

TEST(EpochManager, MappedEpochReleasesStorageWhenLastReaderRetires) {
  std::string path = TempPath("epoch_mapped.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(PathGraph(), path).ok());
  std::weak_ptr<const GraphStorage> mapping;
  auto mapped = MapBinaryGraph(path);
  ASSERT_TRUE(mapped.ok());
  mapping = mapped.ValueOrDie().storage();

  EpochManager epochs(mapped.TakeValue());
  auto pin = epochs.Pin();
  epochs.Advance(PathGraph(), 0);
  // The superseded mapping stays alive for its pinned reader ...
  EXPECT_FALSE(mapping.expired());
  pin.reset();
  epochs.WaitForRetiredBelow(1);
  // ... and is released (unmapped) when the last reader retires.
  EXPECT_TRUE(mapping.expired());
}

// A snapshot keeps one weighted view, for the last seed asked for: runs
// with that seed share it, another seed replaces it without breaking an
// earlier holder, and the view is released with its epoch.
TEST(EpochWeightedView, OneViewPerSeedReleasedWithItsEpoch) {
  Engine engine(SharedGraph());
  std::shared_ptr<const GraphSnapshot> snapshot = engine.PinSnapshot();
  ASSERT_FALSE(snapshot->graph.weighted());

  ASSERT_TRUE(engine.Run("bellman-ford", {.source = 1, .weight_seed = 7}).ok());
  std::shared_ptr<const Graph> seven = snapshot->WeightedView(7);
  ASSERT_TRUE(engine.Run("wbfs", {.source = 1, .weight_seed = 7}).ok());
  EXPECT_EQ(snapshot->WeightedView(7), seven)
      << "runs with one seed share one view";
  EXPECT_EQ(seven->raw_neighbors().data(),
            snapshot->graph.raw_neighbors().data())
      << "the view shares the snapshot's graph";

  ASSERT_TRUE(engine.Run("bellman-ford", {.source = 1, .weight_seed = 8}).ok());
  std::shared_ptr<const Graph> eight = snapshot->WeightedView(8);
  EXPECT_NE(eight, seven);
  // The replaced view stays whole and readable for its holder.
  const Graph expected = AddRandomWeights(snapshot->graph, 7);
  ASSERT_EQ(seven->raw_weights().size(), expected.raw_weights().size());
  EXPECT_TRUE(std::equal(seven->raw_weights().begin(),
                         seven->raw_weights().end(),
                         expected.raw_weights().begin()));

  std::weak_ptr<const Graph> released = eight;
  seven.reset();
  eight.reset();
  snapshot.reset();
  EXPECT_FALSE(released.expired()) << "the current epoch keeps its view";
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(3, 700)}).ok());
  engine.epochs().WaitForRetiredBelow(1);
  EXPECT_TRUE(released.expired()) << "a retired epoch releases its view";
}

// An updated epoch's weighted view weighs its overlaid lists over the
// image's shared array; edge for edge it equals weighting a flattened copy
// of the merged graph, for any seed, even over an edgeless image.
TEST(EpochWeightedView, OverlayViewMatchesWeightedFlatCopy) {
  const Graph base = SharedGraph();
  const vertex_id removed = base.NeighborsUncharged(1)[0];
  auto overlay = Apply(base, nullptr, {EdgeUpdate::Insert(3, 700)});
  overlay = Apply(base, overlay, {EdgeUpdate::Insert(12, 340)});
  overlay = Apply(base, overlay, {EdgeUpdate::Remove(1, removed)});
  const Graph g = MakeOverlayGraph(base, overlay);
  for (uint64_t seed : {7u, 8u}) {
    const Graph view = AddRandomWeights(g, seed);
    EXPECT_TRUE(view.has_overlay());
    EXPECT_EQ(view.raw_neighbors().data(), base.raw_neighbors().data())
        << "the view reads the image's own neighbors";
    ExpectSameWeightedEdges(view, AddRandomWeights(FlattenOverlay(g), seed),
                            "seed " + std::to_string(seed));
  }

  const Graph edgeless = GraphBuilder::FromEdges(4, {});
  const Graph grown = MakeOverlayGraph(
      edgeless, Apply(edgeless, nullptr, {EdgeUpdate::Insert(0, 1)}));
  const Graph flat = AddRandomWeights(FlattenOverlay(grown), 7);
  ExpectSameWeightedEdges(AddRandomWeights(grown, 7), flat, "edgeless image");
}

// Epochs over one image share its weights array for a seed and read the
// image's own offsets and neighbors: no epoch copies the graph.
TEST(EpochWeightedView, EpochsOverOneImageShareOneWeightsArray) {
  Engine engine(SharedGraph());
  const Graph image = engine.graph();
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(3, 700)}).ok());
  std::shared_ptr<const GraphSnapshot> first = engine.PinSnapshot();
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(12, 340)}).ok());
  std::shared_ptr<const GraphSnapshot> second = engine.PinSnapshot();
  ASSERT_NE(first->epoch, second->epoch);

  std::shared_ptr<const Graph> a = first->WeightedView(7);
  std::shared_ptr<const Graph> b = second->WeightedView(7);
  ASSERT_NE(a, b) << "each epoch keeps its own view";
  EXPECT_EQ(SharedWeights(*a), SharedWeights(*b))
      << "one weights array per image and seed";
  EXPECT_EQ(SharedWeights(*a), SharedWeights(AddRandomWeights(image, 7)))
      << "the image's own weighted view shares it too";
  for (const auto& view : {a, b}) {
    EXPECT_TRUE(view->has_overlay());
    EXPECT_EQ(view->raw_offsets().data(), image.raw_offsets().data());
    EXPECT_EQ(view->raw_neighbors().data(), image.raw_neighbors().data());
  }
  EXPECT_EQ(NeighborList(*a, 3), NeighborList(first->graph, 3));
  EXPECT_EQ(NeighborList(*b, 12), NeighborList(second->graph, 12));
}

// A compaction's new image starts its own array; the old image's array
// lives exactly as long as an epoch over the old image is pinned. (The
// first compaction's old image is the construction graph, which the engine
// keeps for its lifetime, so this follows the second image.)
TEST(EpochWeightedView, CompactionStartsAFreshArrayAndRetiresTheOld) {
  Engine engine(SharedGraph());
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(3, 700)}).ok());
  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(12, 340)}).ok());
  std::shared_ptr<const GraphSnapshot> reader = engine.PinSnapshot();
  std::weak_ptr<const std::vector<weight_t>> old_weights =
      SharedWeights(*reader->WeightedView(7));
  ASSERT_FALSE(old_weights.expired());

  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(5, 600)}).ok());
  std::shared_ptr<const Graph> fresh = engine.PinSnapshot()->WeightedView(7);
  EXPECT_NE(SharedWeights(*fresh), old_weights.lock())
      << "the new image gets its own array";
  const Graph flat = AddRandomWeights(FlattenOverlay(engine.graph()), 7);
  ExpectSameWeightedEdges(*fresh, flat, "after compaction");

  EXPECT_FALSE(old_weights.expired())
      << "a pinned epoch over the old image keeps its array";
  reader.reset();
  engine.epochs().WaitForRetiredBelow(engine.epoch());
  EXPECT_TRUE(old_weights.expired())
      << "the old image's array is released with its last epoch";
}

// Concurrent first weighted views on two epochs of one image build the
// image's array once: both views end up sharing it.
TEST(EpochWeightedView, ConcurrentFirstViewsOnTwoEpochsBuildOnce) {
  for (int round = 0; round < 4; ++round) {
    Engine engine(SharedGraph());
    ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(3, 700)}).ok());
    std::shared_ptr<const GraphSnapshot> first = engine.PinSnapshot();
    ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(12, 340)}).ok());
    std::shared_ptr<const GraphSnapshot> second = engine.PinSnapshot();

    std::atomic<int> ready{0};
    std::shared_ptr<const Graph> views[2];
    auto build = [&](int i, const GraphSnapshot& snapshot) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      views[i] = snapshot.WeightedView(7);
    };
    std::thread t0(build, 0, std::cref(*first));
    std::thread t1(build, 1, std::cref(*second));
    t0.join();
    t1.join();
    ASSERT_NE(views[0], nullptr);
    ASSERT_NE(views[1], nullptr);
    EXPECT_EQ(SharedWeights(*views[0]), SharedWeights(*views[1]))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Engine::ApplyUpdates / Engine::Compact
// ---------------------------------------------------------------------------

TEST(EngineUpdates, ApplyUpdatesPublishesNewEpochAndStampsReports) {
  Engine engine(PathGraph());
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.delta_edges(), 0u);

  auto pre_update = engine.PinSnapshot();

  auto stats = engine.ApplyUpdates(
      {EdgeUpdate::Insert(2, 3), EdgeUpdate::Insert(4, 5)});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.ValueOrDie().epoch, 1u);
  EXPECT_EQ(stats.ValueOrDie().applied, 2u);
  EXPECT_EQ(stats.ValueOrDie().delta_edges, 4u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.pending_updates(), 0u);
  EXPECT_TRUE(engine.graph().has_overlay());

  auto current = engine.Run("connectivity");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.ValueOrDie().summary, "components=1");
  EXPECT_EQ(current.ValueOrDie().graph_epoch, 1u);
  EXPECT_EQ(current.ValueOrDie().delta_edges, 4u);

  // A query pinned before the update keeps the pre-update view.
  auto old_run = engine.service()
                     .Submit("connectivity", engine.context(), RunParams{},
                             pre_update)
                     .get();
  ASSERT_TRUE(old_run.ok());
  EXPECT_EQ(old_run.ValueOrDie().summary, "components=3");
  EXPECT_EQ(old_run.ValueOrDie().graph_epoch, 0u);
  EXPECT_EQ(old_run.ValueOrDie().delta_edges, 0u);
}

TEST(EngineUpdates, EmptyAndInvalidBatches) {
  Engine engine(PathGraph());
  auto empty = engine.ApplyUpdates(std::span<const EdgeUpdate>{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.ValueOrDie().epoch, 0u);
  EXPECT_EQ(empty.ValueOrDie().applied, 0u);

  auto bad = engine.ApplyUpdates(
      {EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(0, 6)});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.epoch(), 0u) << "rejected batches must not advance";
  EXPECT_EQ(engine.pending_updates(), 0u)
      << "rejected batches must not linger in the log";
}

TEST(EngineUpdates, CompactFoldsOverlayInMemory) {
  Engine engine(PathGraph());
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(2, 3),
                                   EdgeUpdate::Remove(3, 4)})
                  .ok());
  auto overlay_run = engine.Run("connectivity");
  ASSERT_TRUE(overlay_run.ok());

  auto compacted = engine.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.ValueOrDie().epoch, 2u);
  EXPECT_EQ(compacted.ValueOrDie().num_edges, 6u);  // 6 + 2 - 2
  EXPECT_FALSE(compacted.ValueOrDie().image_rewritten);
  EXPECT_FALSE(engine.graph().has_overlay());
  EXPECT_EQ(engine.delta_edges(), 0u);

  auto compact_run = engine.Run("connectivity");
  ASSERT_TRUE(compact_run.ok());
  EXPECT_EQ(compact_run.ValueOrDie().summary,
            overlay_run.ValueOrDie().summary);
  EXPECT_EQ(compact_run.ValueOrDie().delta_edges, 0u);

  // Nothing further to merge: Compact is a no-op and keeps the epoch.
  auto noop = engine.Compact();
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop.ValueOrDie().epoch, 2u);
  EXPECT_EQ(engine.epoch(), 2u);
}

TEST(EngineUpdates, CompactRewritesMappedImageInPlace) {
  Graph g = SharedGraph();
  std::string path = TempPath("compact_rewrite.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  auto engine_or = Engine::FromFile(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  Engine engine = engine_or.TakeValue();
  ASSERT_TRUE(engine.graph().nvram_resident());

  const vertex_id n = g.num_vertices();
  auto stats = engine.ApplyUpdates(
      {EdgeUpdate::Insert(0, n - 1), EdgeUpdate::Insert(1, n - 2)});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const uint64_t expected_m = engine.graph().num_edges();

  auto compacted = engine.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_TRUE(compacted.ValueOrDie().image_rewritten);
  EXPECT_EQ(compacted.ValueOrDie().num_edges, expected_m);
  EXPECT_TRUE(engine.graph().nvram_resident())
      << "the rewritten image is remapped as the new NVRAM base";
  EXPECT_FALSE(engine.graph().has_overlay());

  // The on-disk image now IS the updated graph.
  auto reloaded = MapBinaryGraph(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.ValueOrDie().num_edges(), expected_m);
  auto run = engine.Run("bfs", {.source = 0});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.ValueOrDie().graph_epoch, 2u);
  EXPECT_TRUE(run.ValueOrDie().graph_mapped);
}

TEST(EngineUpdates, WeightedAlgorithmOnUpdatedEpochMatchesCompactedTwin) {
  // Weighted algorithms on unweighted updated epochs read their
  // snapshot's weighted view: the image's shared weights plus weighted
  // copies of the overlaid lists. The pairwise weight hash makes it
  // identical to the compacted graph's, so the results must agree.
  Engine overlay_engine(SharedGraph());
  Engine compact_engine(SharedGraph());
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(3, 700),
                                   EdgeUpdate::Insert(12, 340)};
  ASSERT_TRUE(overlay_engine.ApplyUpdates(batch).ok());
  ASSERT_TRUE(compact_engine.ApplyUpdates(batch).ok());
  ASSERT_TRUE(compact_engine.Compact().ok());

  auto a = overlay_engine.Run("bellman-ford", {.source = 1});
  auto b = compact_engine.Run("bellman-ford", {.source = 1});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.ValueOrDie().summary, b.ValueOrDie().summary);
}

// ---------------------------------------------------------------------------
// Acceptance: overlay view vs compacted graph parity
// ---------------------------------------------------------------------------

// The tentpole's observable-equivalence property: for the same update
// stream over the same mapped base image, the overlay view and the
// compacted graph produce bit-identical summaries and PSAM accounting -
// identical total reads and PsamCost under graph-nvram (the DRAM/NVRAM
// split shifts by exactly the overlaid words), and fully bit-identical
// counters under all-nvram (where both views charge every read the same).
TEST(UpdateParity, CompactedGraphMatchesOverlayViewBitForBit) {
  Graph g = SharedGraph();
  std::string overlay_path = TempPath("parity_overlay.bsadj");
  std::string compact_path = TempPath("parity_compact.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(g, overlay_path).ok());
  ASSERT_TRUE(WriteBinaryGraph(g, compact_path).ok());

  // A deterministic mix of inserts (hashed endpoints) and removes of real
  // base edges.
  std::vector<EdgeUpdate> batch;
  Random rng(42);
  const vertex_id n = g.num_vertices();
  for (uint64_t i = 0; i < 48; ++i) {
    batch.push_back(EdgeUpdate::Insert(
        static_cast<vertex_id>(rng.ith_rand(2 * i) % n),
        static_cast<vertex_id>(rng.ith_rand(2 * i + 1) % n)));
  }
  for (vertex_id v = 0; v < 8; ++v) {
    auto nbrs = g.NeighborsUncharged(v);
    if (!nbrs.empty()) batch.push_back(EdgeUpdate::Remove(v, nbrs[0]));
  }

  auto overlay_engine_or = Engine::FromFile(overlay_path);
  auto compact_engine_or = Engine::FromFile(compact_path);
  ASSERT_TRUE(overlay_engine_or.ok());
  ASSERT_TRUE(compact_engine_or.ok());
  Engine overlay_engine = overlay_engine_or.TakeValue();
  Engine compact_engine = compact_engine_or.TakeValue();

  auto applied_a = overlay_engine.ApplyUpdates(batch);
  auto applied_b = compact_engine.ApplyUpdates(batch);
  ASSERT_TRUE(applied_a.ok()) << applied_a.status().ToString();
  ASSERT_TRUE(applied_b.ok()) << applied_b.status().ToString();
  ASSERT_GT(applied_a.ValueOrDie().delta_edges, 0u);
  ASSERT_TRUE(compact_engine.Compact().ok());
  ASSERT_TRUE(overlay_engine.graph().has_overlay());
  ASSERT_FALSE(compact_engine.graph().has_overlay());
  ASSERT_EQ(overlay_engine.graph().num_edges(),
            compact_engine.graph().num_edges());

  // The relaxation kernels run on one worker: their rounds race on
  // writeMin, and which racer wins steers the next frontier.
  const std::vector<std::string> algos = {"bfs",          "connectivity",
                                          "pagerank",     "bellman-ford",
                                          "wbfs",         "triangle-count"};
  const int host_width = num_workers();
  auto pin_width = [&](const std::string& algo) {
    const bool relax = algo == "bellman-ford" || algo == "wbfs";
    const int width = relax ? 1 : host_width;
    if (width != num_workers()) Scheduler::Reset(width);
  };
  for (const std::string& algo : algos) {
    pin_width(algo);
    auto a = overlay_engine.Run(algo, {.source = 1});
    auto b = compact_engine.Run(algo, {.source = 1});
    ASSERT_TRUE(a.ok()) << algo << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << algo << ": " << b.status().ToString();
    const RunReport& ra = a.ValueOrDie();
    const RunReport& rb = b.ValueOrDie();
    EXPECT_EQ(ra.summary, rb.summary) << algo;
    EXPECT_EQ(ra.cost.dram_reads + ra.cost.nvram_reads,
              rb.cost.dram_reads + rb.cost.nvram_reads)
        << algo << ": total reads must not depend on the view";
    EXPECT_EQ(ra.cost.dram_writes, rb.cost.dram_writes) << algo;
    EXPECT_EQ(ra.cost.nvram_writes, rb.cost.nvram_writes) << algo;
    EXPECT_DOUBLE_EQ(ra.PsamCost(), rb.PsamCost()) << algo;
    // Weighted runs read the overlay view's weighted copy of its lists, so
    // they too read overlaid lists as DRAM.
    EXPECT_GT(ra.cost.dram_reads, rb.cost.dram_reads)
        << algo << ": overlaid lists read as DRAM only in the overlay view";
    EXPECT_EQ(ra.graph_epoch, 1u) << algo;
    EXPECT_EQ(rb.graph_epoch, 2u) << algo;
    EXPECT_GT(ra.delta_edges, 0u) << algo;
    EXPECT_EQ(rb.delta_edges, 0u) << algo;
  }

  // Under all-nvram every read (work or graph) charges NVRAM, so the two
  // views' counters are bit-identical field by field.
  overlay_engine.context().policy = nvram::AllocPolicy::kAllNvram;
  compact_engine.context().policy = nvram::AllocPolicy::kAllNvram;
  for (const std::string& algo : algos) {
    pin_width(algo);
    auto a = overlay_engine.Run(algo, {.source = 1});
    auto b = compact_engine.Run(algo, {.source = 1});
    ASSERT_TRUE(a.ok()) << algo << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << algo << ": " << b.status().ToString();
    ExpectTotalsEq(a.ValueOrDie().cost, b.ValueOrDie().cost,
                   algo + " under all-nvram");
  }
  Scheduler::Reset(host_width);
}

}  // namespace
}  // namespace sage
