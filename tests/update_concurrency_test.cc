// Concurrency suite for the dynamic-update subsystem: Engine::Submit racing
// ApplyUpdates and Compact. The invariant under test is snapshot isolation -
// every query executes against exactly the epoch it pinned at submission,
// so its result must equal the single-writer's recorded expectation for
// that epoch, no matter how the race interleaves. Group commits must apply
// every update exactly once, and a compaction hot-swap must keep the
// superseded mapping alive until its last pinned reader retires.
//
// This suite runs under the CI ThreadSanitizer lane (SAGE_SANITIZE=thread);
// keep new tests free of intentionally-racy constructs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
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

// Readers race a single writer that toggles one bridge edge between two
// cliques. The writer records, per epoch it publishes, the component count
// and delta it expects; every racing query's report must match the record
// for the epoch it was stamped with - a query observing a half-applied
// update or a neighboring epoch's view would disagree.
TEST(DeltaConcurrency, SubmitRacingApplyUpdatesKeepsSnapshotIsolation) {
  Engine engine(DisjointCliques(2, 8));  // {0..7} and {8..15}
  constexpr uint64_t kToggles = 6;
  constexpr int kReaders = 4;
  constexpr int kPerReader = 8;

  // expected_summary[e] / expected_delta[e] for epochs 0..kToggles, written
  // only by the single writer before readers' futures are inspected.
  std::vector<std::string> expected_summary(kToggles + 1);
  std::vector<uint64_t> expected_delta(kToggles + 1);
  expected_summary[0] = "components=2";
  expected_delta[0] = 0;

  std::vector<std::vector<std::future<Result<RunReport>>>> futures(kReaders);
  std::atomic<bool> writing{true};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t i = 1; i <= kToggles; ++i) {
      const bool insert = (i % 2) == 1;
      auto stats = engine.ApplyUpdates(
          {insert ? EdgeUpdate::Insert(0, 8) : EdgeUpdate::Remove(0, 8)});
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      // Single writer: epochs advance one per toggle, deterministically.
      ASSERT_EQ(stats.ValueOrDie().epoch, i);
      expected_summary[i] = insert ? "components=1" : "components=2";
      expected_delta[i] = stats.ValueOrDie().delta_edges;
    }
    writing.store(false, std::memory_order_release);
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kPerReader; ++i) {
        futures[r].push_back(engine.Submit("connectivity"));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(writing.load());

  for (int r = 0; r < kReaders; ++r) {
    for (auto& f : futures[r]) {
      auto run = f.get();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const RunReport& report = run.ValueOrDie();
      ASSERT_LE(report.graph_epoch, kToggles);
      EXPECT_EQ(report.summary, expected_summary[report.graph_epoch])
          << "epoch " << report.graph_epoch
          << " query observed another epoch's view";
      EXPECT_EQ(report.delta_edges, expected_delta[report.graph_epoch])
          << "epoch " << report.graph_epoch;
    }
  }
  EXPECT_EQ(engine.epoch(), kToggles);
  EXPECT_EQ(engine.graph().num_edges(),
            DisjointCliques(2, 8).num_edges())  // toggles end on a remove
      << "final view must equal the base after insert/remove pairs";
}

// Concurrent ApplyUpdates callers racing one group-commit lock: every
// update is applied exactly once (the sum of `applied` across callers is
// the total submitted), and the final view contains all of them.
TEST(DeltaConcurrency, ConcurrentApplyUpdatesApplyEveryUpdateOnce) {
  constexpr vertex_id kPairs = 64;
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kPerThread = kPairs / kThreads;
  Engine engine(GraphBuilder::FromEdges(2 * kPairs, {}));

  std::vector<uint64_t> applied(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (uint32_t i = 0; i < kPerThread; ++i) {
          // Thread t owns pairs [t*kPerThread, (t+1)*kPerThread): inserts
          // are disjoint across threads, so the final view is exact.
          vertex_id k = t * kPerThread + i;
          auto stats = engine.ApplyUpdates({EdgeUpdate::Insert(2 * k, 2 * k + 1)});
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          applied[t] += stats.ValueOrDie().applied;
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  uint64_t total_applied = 0;
  for (uint64_t a : applied) total_applied += a;
  EXPECT_EQ(total_applied, uint64_t{kPairs})
      << "group commits must apply every update exactly once";
  EXPECT_EQ(engine.pending_updates(), 0u);
  EXPECT_EQ(engine.delta_edges(), 2u * kPairs);
  Graph view = engine.graph();
  EXPECT_EQ(view.num_edges(), 2u * kPairs);
  for (vertex_id k = 0; k < kPairs; ++k) {
    ASSERT_EQ(view.degree_uncharged(2 * k), 1u) << "pair " << k;
    ASSERT_EQ(view.NeighborAt(2 * k, 0), 2 * k + 1) << "pair " << k;
  }
}

// Full mixed stress over a mapped image: concurrent writers inserting
// disjoint edges, a compactor repeatedly rewriting the .bsadj in place,
// and readers submitting queries throughout. Every query must complete
// with a sane epoch-consistent answer and zero NVRAM writes of its own,
// and the final compacted image must hold exactly the union of inserts.
TEST(CompactionConcurrency, SubmitRacesApplyUpdatesAndCompact) {
  Graph base = DisjointCliques(4, 8);  // n = 32, m = 224, components = 4
  std::string path = TempPath("compaction_stress.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(base, path).ok());
  auto engine_or = Engine::FromFile(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  Engine engine = engine_or.TakeValue();
  ASSERT_TRUE(engine.graph().nvram_resident());

  constexpr int kReaders = 3;
  constexpr int kPerReader = 6;
  constexpr int kCompactions = 4;
  constexpr vertex_id kPerWriter = 8;
  std::vector<std::vector<std::future<Result<RunReport>>>> futures(kReaders);
  {
    std::vector<std::thread> threads;
    // Writer 0 bridges cliques 0-1, writer 1 bridges cliques 2-3.
    for (vertex_id w = 0; w < 2; ++w) {
      threads.emplace_back([&, w] {
        for (vertex_id i = 0; i < kPerWriter; ++i) {
          auto stats = engine.ApplyUpdates(
              {EdgeUpdate::Insert(16 * w + i, 16 * w + 8 + i)});
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < kCompactions; ++i) {
        auto stats = engine.Compact();
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < kPerReader; ++i) {
          futures[r].push_back(engine.Submit("connectivity"));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int r = 0; r < kReaders; ++r) {
    for (auto& f : futures[r]) {
      auto run = f.get();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const RunReport& report = run.ValueOrDie();
      // Bridges only merge components: every consistent snapshot shows
      // between 1 and 4 of them.
      bool sane = false;
      for (int c = 1; c <= 4; ++c) {
        sane = sane || report.summary == "components=" + std::to_string(c);
      }
      EXPECT_TRUE(sane) << report.summary;
      EXPECT_EQ(report.cost.nvram_writes, 0u)
          << "queries never write the graph region, even racing compaction";
    }
  }

  // Fold whatever is still in the overlay and check the exact final image.
  ASSERT_TRUE(engine.Compact().ok());
  const uint64_t expected_m = base.num_edges() + 2ull * 2 * kPerWriter;
  EXPECT_EQ(engine.graph().num_edges(), expected_m);
  EXPECT_EQ(engine.delta_edges(), 0u);
  auto reloaded = MapBinaryGraph(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.ValueOrDie().num_edges(), expected_m);
  auto final_run = engine.Run("connectivity");
  ASSERT_TRUE(final_run.ok());
  EXPECT_EQ(final_run.ValueOrDie().summary, "components=2");
}

// A compaction whose rewrite fails must still publish the log entries it
// drained: a writer whose batch it drained is acknowledged, so its edge
// must reach an epoch. A directory at the rewrite's temporary path makes
// every Compact with an overlay to fold fail after its drain.
TEST(CompactionConcurrency, FailedCompactKeepsAcknowledgedUpdates) {
  constexpr vertex_id kWriters = 4;
  constexpr vertex_id kPerWriter = 64;
  constexpr vertex_id kPairs = kWriters * kPerWriter;
  // Pairs (2k, 2k + 1) are all absent from the base, whose one edge joins
  // the two vertices past them.
  const Graph base =
      GraphBuilder::FromEdges(2 * kPairs + 2, {{2 * kPairs, 2 * kPairs + 1}});
  const std::string path = TempPath("compact_fails.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(base, path).ok());
  const std::string tmp = path + ".compact.tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  auto engine_or = Engine::FromFile(path);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  Engine engine = engine_or.TakeValue();

  // Writers start once the compactor is looping, so every batch races it.
  std::atomic<bool> compacting{false};
  std::atomic<bool> writing{true};
  std::atomic<uint64_t> failed_compactions{0};
  std::thread compactor([&] {
    while (writing.load(std::memory_order_acquire)) {
      if (!engine.Compact().ok()) failed_compactions.fetch_add(1);
      compacting.store(true, std::memory_order_release);
    }
  });
  std::vector<std::vector<vertex_id>> acknowledged(kWriters);
  {
    std::vector<std::thread> writers;
    for (vertex_id w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        while (!compacting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        // Writer w owns pairs [w * kPerWriter, (w + 1) * kPerWriter).
        for (vertex_id k = w * kPerWriter; k < (w + 1) * kPerWriter; ++k) {
          auto stats =
              engine.ApplyUpdates({EdgeUpdate::Insert(2 * k, 2 * k + 1)});
          if (stats.ok()) acknowledged[w].push_back(k);
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  writing.store(false, std::memory_order_release);
  compactor.join();
  EXPECT_GT(failed_compactions.load(), 0u) << "the rewrite never failed";

  const Graph view = engine.graph();
  size_t acknowledged_edges = 0;
  for (const std::vector<vertex_id>& pairs : acknowledged) {
    acknowledged_edges += pairs.size();
    for (vertex_id k : pairs) {
      auto nbrs = view.NeighborsUncharged(2 * k);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), 2 * k + 1), nbrs.end())
          << "acknowledged edge (" << 2 * k << ", " << 2 * k + 1
          << ") is missing from the current epoch";
    }
  }
  EXPECT_EQ(acknowledged_edges, size_t{kPairs});
  std::filesystem::remove_all(tmp);
  std::remove(path.c_str());
}

// The compaction hot-swap's mapping lifecycle: the mapping superseded by a
// second compaction stays alive exactly as long as a reader holds a pin on
// an epoch that reads it, and is released once that reader retires.
TEST(CompactionConcurrency, SupersededMappingLivesUntilLastReaderRetires) {
  std::string path = TempPath("hotswap_mapping.bsadj");
  ASSERT_TRUE(WriteBinaryGraph(DisjointCliques(2, 6), path).ok());
  auto engine_or = Engine::FromFile(path);
  ASSERT_TRUE(engine_or.ok());
  Engine engine = engine_or.TakeValue();

  // First compaction swaps in mapping B (the original mapping A stays
  // referenced by the engine's epoch-0 state for its lifetime).
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(0, 6)}).ok());
  ASSERT_TRUE(engine.Compact().ok());
  std::weak_ptr<const GraphStorage> superseded;
  {
    auto pin_b = engine.PinSnapshot();
    ASSERT_TRUE(pin_b->graph.nvram_resident());
    superseded = pin_b->graph.storage();
  }

  // A reader pins an epoch whose view reads mapping B, then a second
  // compaction swaps in mapping C.
  auto reader_pin = engine.PinSnapshot();
  ASSERT_TRUE(engine.ApplyUpdates({EdgeUpdate::Insert(1, 7)}).ok());
  ASSERT_TRUE(engine.Compact().ok());
  const uint64_t current = engine.epoch();
  EXPECT_FALSE(superseded.expired())
      << "pinned readers must keep the superseded mapping mapped";

  reader_pin.reset();
  engine.epochs().WaitForRetiredBelow(current);
  EXPECT_TRUE(superseded.expired())
      << "the superseded mapping must unmap when its last reader retires";
}

}  // namespace
}  // namespace sage
