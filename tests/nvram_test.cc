// Tests for the PSAM cost model, allocation policies, MemoryMode cache
// simulation, NUMA layouts, charge routes and batches, and the memory
// tracker.
#include <new>

#include <gtest/gtest.h>

#include "nvram/execution_context.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"

namespace sage::nvram {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& cm = Cost();
    cm.SetConfig(EmulationConfig{});
    cm.SetAllocPolicy(AllocPolicy::kGraphNvram);
    cm.SetGraphLayout(GraphLayout::kReplicated);
    cm.ResetCounters();
  }
};

TEST_F(CostModelTest, GraphNvramPolicyChargesNvramReads) {
  auto& cm = Cost();
  cm.ChargeGraphRead(10);
  cm.ChargeWorkRead(5);
  cm.ChargeWorkWrite(3);
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_reads, 10u);
  EXPECT_EQ(t.dram_reads, 5u);
  EXPECT_EQ(t.dram_writes, 3u);
  EXPECT_EQ(t.nvram_writes, 0u);
}

TEST_F(CostModelTest, GraphWriteChargesNvramWrites) {
  auto& cm = Cost();
  cm.ChargeGraphWrite(7);
  EXPECT_EQ(cm.Totals().nvram_writes, 7u);
}

TEST_F(CostModelTest, AllDramPolicyNeverTouchesNvram) {
  auto& cm = Cost();
  cm.SetAllocPolicy(AllocPolicy::kAllDram);
  cm.ChargeGraphRead(10);
  cm.ChargeGraphWrite(10);
  cm.ChargeWorkRead(10);
  cm.ChargeWorkWrite(10);
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_reads, 0u);
  EXPECT_EQ(t.nvram_writes, 0u);
  EXPECT_EQ(t.dram_reads, 20u);
  EXPECT_EQ(t.dram_writes, 20u);
}

TEST_F(CostModelTest, AllNvramPolicyChargesEverythingToNvram) {
  auto& cm = Cost();
  cm.SetAllocPolicy(AllocPolicy::kAllNvram);
  cm.ChargeWorkRead(4);
  cm.ChargeWorkWrite(6);
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_reads, 4u);
  EXPECT_EQ(t.nvram_writes, 6u);
}

TEST_F(CostModelTest, PsamCostWeighsWritesByOmega) {
  CostTotals t;
  t.dram_reads = 100;
  t.nvram_reads = 50;
  t.nvram_writes = 10;
  EXPECT_DOUBLE_EQ(t.PsamCost(1.0), 160.0);
  EXPECT_DOUBLE_EQ(t.PsamCost(4.0), 190.0);
  EXPECT_DOUBLE_EQ(t.PsamCost(8.0), 230.0);
}

TEST_F(CostModelTest, MemoryModeCachesRepeatedAccesses) {
  auto& cm = Cost();
  cm.SetAllocPolicy(AllocPolicy::kMemoryMode);
  cm.ResetCounters();
  // First touch misses, second touch of the same address hits.
  cm.ChargeGraphRead(32, /*addr_hint=*/0);
  auto t1 = cm.Totals();
  EXPECT_GT(t1.memory_mode_misses, 0u);
  cm.ChargeGraphRead(32, /*addr_hint=*/0);
  auto t2 = cm.Totals();
  EXPECT_GT(t2.memory_mode_hits, 0u);
  EXPECT_EQ(t2.memory_mode_misses, t1.memory_mode_misses);
}

TEST_F(CostModelTest, MemoryModeEvictsOnConflict) {
  auto& cm = Cost();
  cm.SetAllocPolicy(AllocPolicy::kMemoryMode);
  cm.ResetCounters();
  const auto& cfg = cm.config();
  uint64_t stride_words = cfg.memory_mode_lines * cfg.memory_mode_line_words;
  cm.ChargeGraphRead(1, 0);
  cm.ChargeGraphRead(1, stride_words);  // same slot, different line: evicts
  cm.ChargeGraphRead(1, 0);             // misses again
  auto t = cm.Totals();
  EXPECT_EQ(t.memory_mode_misses, 3u);
  EXPECT_EQ(t.memory_mode_hits, 0u);
}

TEST_F(CostModelTest, InterleavedLayoutMarksRemoteAccesses) {
  auto& cm = Cost();
  cm.SetGraphLayout(GraphLayout::kInterleaved);
  cm.ResetCounters();
  // Touch many distinct lines; with >1 emulated socket roughly the lines on
  // the other socket are remote. The main thread is on socket 0, so lines
  // with odd line index are remote.
  const auto& cfg = cm.config();
  for (uint64_t line = 0; line < 100; ++line) {
    cm.ChargeGraphRead(1, line * cfg.memory_mode_line_words);
  }
  auto t = cm.Totals();
  EXPECT_EQ(t.nvram_reads, 100u);
  EXPECT_EQ(t.remote_nvram_accesses, 50u);
}

TEST_F(CostModelTest, ReplicatedLayoutHasNoRemoteAccesses) {
  auto& cm = Cost();
  cm.ResetCounters();
  for (uint64_t line = 0; line < 100; ++line) {
    cm.ChargeGraphRead(1, line * 32);
  }
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 0u);
}

TEST_F(CostModelTest, EmulatedNanosReflectsAsymmetry) {
  auto& cm = Cost();
  CostTotals reads;
  reads.nvram_reads = 1000;
  CostTotals writes;
  writes.nvram_writes = 1000;
  double read_ns = cm.EmulatedNanos(reads, 1);
  double write_ns = cm.EmulatedNanos(writes, 1);
  EXPECT_DOUBLE_EQ(write_ns / read_ns, cm.config().omega);
}

TEST_F(CostModelTest, ShardedCountersSumAcrossThreads) {
  auto& cm = Cost();
  cm.ResetCounters();
  parallel_for(0, 1000, [&](size_t) { cm.ChargeGraphRead(1); }, 1);
  EXPECT_EQ(cm.Totals().nvram_reads, 1000u);
}

// Charge routes and batches. Each model decides its routes in its setters
// and constructor, and a batch sums only the charges of the model that
// opened it; these pin both against any per-thread caching that could go
// stale. Deterministic, and run under TSan (ChargeRoute is in the CI
// thread lane's -R list).
TEST(ChargeRoute, BatchSumsOnlyTheModelThatOpenedIt) {
  ExecutionContext a, b;
  ScopedExecutionContext bind_a(a);
  {
    ChargeBatch batch(Cost());
    Cost().ChargeWorkRead(3);
    {
      ScopedExecutionContext bind_b(b);
      Cost().ChargeWorkRead(5);
      Cost().ChargeGraphRead(7);
    }
    // B's words land at once and in B; A's wait for the batch to close.
    EXPECT_EQ(b.cost_model().Totals().dram_reads, 5u);
    EXPECT_EQ(b.cost_model().Totals().nvram_reads, 7u);
    EXPECT_EQ(a.cost_model().Totals().dram_reads, 0u);
    {
      ChargeBatch nested(Cost());  // same model: inert
      Cost().ChargeWorkWrite(2);
    }
    EXPECT_EQ(a.cost_model().Totals().dram_writes, 0u);
  }
  const CostTotals ta = a.cost_model().Totals();
  EXPECT_EQ(ta.dram_reads, 3u);
  EXPECT_EQ(ta.dram_writes, 2u);
  EXPECT_EQ(ta.nvram_reads, 0u);
  const CostTotals tb = b.cost_model().Totals();
  EXPECT_EQ(tb.dram_reads, 5u);
  EXPECT_EQ(tb.nvram_reads, 7u);
  EXPECT_EQ(tb.dram_writes, 0u);
}

TEST(ChargeRoute, SetterBetweenChargesReroutesTheNextCharge) {
  ExecutionContext ctx;
  ScopedExecutionContext bind(ctx);
  CostModel& cm = ctx.cost_model();
  Cost().ChargeGraphRead(4);
  EXPECT_EQ(cm.Totals().nvram_reads, 4u);
  cm.SetAllocPolicy(AllocPolicy::kAllDram);
  Cost().ChargeGraphRead(4);
  EXPECT_EQ(cm.Totals().nvram_reads, 4u);
  EXPECT_EQ(cm.Totals().dram_reads, 4u);
  cm.SetGraphResidence(GraphResidence::kMappedNvram);
  Cost().ChargeGraphRead(4);
  EXPECT_EQ(cm.Totals().nvram_reads, 8u);
  // An interleaved layout charges remote reads per call: line 1 lives on
  // socket 1, the main thread on socket 0.
  const uint64_t line1 = cm.config().memory_mode_line_words;
  cm.SetGraphLayout(GraphLayout::kInterleaved);
  Cost().ChargeGraphRead(2, line1);
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 2u);
  cm.SetGraphLayout(GraphLayout::kReplicated);
  Cost().ChargeGraphRead(2, line1);
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 2u);
  EXPECT_EQ(cm.Totals().nvram_reads, 12u);
  cm.SetAllocPolicy(AllocPolicy::kMemoryMode);
  Cost().ChargeWorkWrite(1);
  EXPECT_EQ(cm.Totals().memory_mode_misses, 1u);
  EXPECT_EQ(cm.Totals().nvram_writes, 1u);
}

// Under a NUMA layout only NVRAM reads pay the per-call remote check, of
// graph and working memory alike; NVRAM writes stay on the fast route and
// never count a remote access.
TEST(ChargeRoute, NumaLayoutChargesRemoteReadsButNeverWrites) {
  ExecutionContext ctx;
  ScopedExecutionContext bind(ctx);
  CostModel& cm = ctx.cost_model();
  cm.SetAllocPolicy(AllocPolicy::kAllNvram);
  cm.SetGraphLayout(GraphLayout::kInterleaved);
  // Line 1 lives on socket 1, the main thread on socket 0.
  const uint64_t line1 = cm.config().memory_mode_line_words;
  Cost().ChargeGraphWrite(3, line1);
  Cost().ChargeWorkWrite(4, line1);
  EXPECT_EQ(cm.Totals().nvram_writes, 7u);
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 0u);
  Cost().ChargeGraphRead(2, line1);
  Cost().ChargeWorkRead(5, line1);
  EXPECT_EQ(cm.Totals().nvram_reads, 7u);
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 7u);
  // The socket-local line is charged without a remote access.
  Cost().ChargeWorkRead(1, 0);
  EXPECT_EQ(cm.Totals().nvram_reads, 8u);
  EXPECT_EQ(cm.Totals().remote_nvram_accesses, 7u);
}

TEST(ChargeRoute, ModelBuiltWhereOneDiedStartsFromItsOwnDefaultRoute) {
  alignas(ExecutionContext) unsigned char storage[sizeof(ExecutionContext)];
  // Charged from every worker, so a route remembered by any thread for
  // this address would show.
  auto charge_everywhere = [] {
    parallel_for(0, 64, [](size_t) { Cost().ChargeGraphRead(1); }, 1);
  };
  auto* first = new (storage) ExecutionContext();
  first->cost_model().SetAllocPolicy(AllocPolicy::kAllDram);
  {
    ScopedExecutionContext bind(*first);
    charge_everywhere();
  }
  EXPECT_EQ(first->cost_model().Totals().dram_reads, 64u);
  first->~ExecutionContext();
  auto* second = new (storage) ExecutionContext();
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  {
    ScopedExecutionContext bind(*second);
    charge_everywhere();
  }
  EXPECT_EQ(second->cost_model().Totals().nvram_reads, 64u);
  EXPECT_EQ(second->cost_model().Totals().dram_reads, 0u);
  second->~ExecutionContext();
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  auto& mt = Memory();
  mt.ResetPeak();
  uint64_t base = mt.CurrentBytes();
  {
    TrackedAllocation a(1000);
    EXPECT_EQ(mt.CurrentBytes(), base + 1000);
    {
      TrackedAllocation b(500);
      EXPECT_EQ(mt.CurrentBytes(), base + 1500);
    }
    EXPECT_EQ(mt.CurrentBytes(), base + 1000);
    EXPECT_GE(mt.PeakBytes(), base + 1500);
  }
  EXPECT_EQ(mt.CurrentBytes(), base);
}

TEST(MemoryTracker, ResizeAdjustsReportedSize) {
  auto& mt = Memory();
  uint64_t base = mt.CurrentBytes();
  TrackedAllocation a(100);
  a.Resize(400);
  EXPECT_EQ(mt.CurrentBytes(), base + 400);
  a.Resize(50);
  EXPECT_EQ(mt.CurrentBytes(), base + 50);
}

TEST(AllocPolicyNames, AreDistinct) {
  EXPECT_STREQ(AllocPolicyName(AllocPolicy::kAllDram), "all-dram");
  EXPECT_STREQ(AllocPolicyName(AllocPolicy::kGraphNvram), "graph-nvram");
  EXPECT_STREQ(AllocPolicyName(AllocPolicy::kAllNvram), "all-nvram");
  EXPECT_STREQ(AllocPolicyName(AllocPolicy::kMemoryMode), "memory-mode");
}

}  // namespace
}  // namespace sage::nvram
