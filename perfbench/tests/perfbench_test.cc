// Tests for the benchmark's own code: the percentile rule, seeded inputs,
// span self time, the output checks, and the oversubscription guard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/registry.h"
#include "checks.h"
#include "config.h"
#include "graph/generators.h"
#include "plan.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(NearestRank(100, 0.9), 90u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(Reportable(100, 0.9));
  EXPECT_FALSE(Reportable(99, 0.9));
  EXPECT_TRUE(Reportable(1000, 0.99));
  EXPECT_FALSE(Reportable(999, 0.99));
  EXPECT_FALSE(Reportable(0, 0.5));
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.5), 50);
  EXPECT_EQ(Quantile(v, 0.9), 90);
  EXPECT_EQ(Quantile(v, 1.0), 100);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(MedianOr0({}), 0.0);
}

TEST(PercentileRule, EveryWorkloadIsSizedForItsTail) {
  for (const char* name : {"analytics", "serve", "update-mix"}) {
    const Workload* w = FindWorkload(name);
    ASSERT_NE(w, nullptr) << name;
    for (int nproc : {1, 4, 16}) {
      const RunShape shape = ShapeFor(*w, nproc);
      // Even a zero-second run does enough whole passes for its tail.
      const size_t samples = PassesPerClient(*w, shape, 0.0) *
                             static_cast<size_t>(shape.clients) * w->mix.size();
      EXPECT_TRUE(Reportable(samples, w->tail_q)) << name << " nproc " << nproc;
    }
  }
}

TEST(SeededInputs, SameSeedSameSequencesOtherSeedOther) {
  const sage::Graph g = sage::RmatGraph(10, 8000, 5);
  const auto pool = SourcePool(g, 256, 11);
  ASSERT_FALSE(pool.empty());
  EXPECT_EQ(pool, SourcePool(g, 256, 11));
  EXPECT_NE(pool, SourcePool(g, 256, 12));

  const auto plan = MakeRequestPlan(3, pool, 1.3, 4, 50, 7);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].size(), 150u);
  EXPECT_EQ(plan, MakeRequestPlan(3, pool, 1.3, 4, 50, 7));
  EXPECT_NE(plan, MakeRequestPlan(3, pool, 1.3, 4, 50, 8));
  EXPECT_NE(plan[0], plan[1]);  // clients draw independent streams
  for (size_t i = 0; i < plan[0].size(); ++i) {
    EXPECT_EQ(plan[0][i].algorithm, i % 3);  // whole passes, fixed order
  }

  auto same = [](const std::vector<std::vector<sage::EdgeUpdate>>& a,
                 const std::vector<std::vector<sage::EdgeUpdate>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
      for (size_t j = 0; j < a[i].size(); ++j) {
        if (a[i][j].u != b[i][j].u || a[i][j].v != b[i][j].v ||
            a[i][j].remove != b[i][j].remove) {
          return false;
        }
      }
    }
    return true;
  };
  const auto batches = MakeUpdateBatches(g, 6, 64, 3);
  ASSERT_EQ(batches.size(), 6u);
  EXPECT_EQ(batches[0].size(), 64u);
  EXPECT_TRUE(same(batches, MakeUpdateBatches(g, 6, 64, 3)));
  EXPECT_FALSE(same(batches, MakeUpdateBatches(g, 6, 64, 4)));
}

TEST(SeededInputs, ZipfSkewsTowardLowRanks) {
  std::vector<sage::vertex_id> pool(1000);
  for (sage::vertex_id i = 0; i < pool.size(); ++i) pool[i] = i;
  const auto plan = MakeRequestPlan(1, pool, 1.3, 1, 5000, 1);
  size_t top10 = 0;
  for (const Request& r : plan[0]) top10 += r.source < 10 ? 1 : 0;
  EXPECT_GT(top10, plan[0].size() / 2);
  const auto uniform = MakeRequestPlan(1, pool, 0.0, 1, 5000, 1);
  top10 = 0;
  for (const Request& r : uniform[0]) top10 += r.source < 10 ? 1 : 0;
  EXPECT_LT(top10, uniform[0].size() / 20);
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const uint64_t root = rec.Add("request", 0, 100, 0, 1);
  const uint64_t a = rec.Add("api.submit", 10, 40, root, 1);
  rec.Add("api.queue", 30, 60, root, 1);        // overlaps a
  rec.Add("nested", 15, 20, a, 1);              // grandchild: a's, not root's
  rec.Add("algorithms.kernel", 90, 120, root, 1);  // clipped to the root
  const std::vector<Span> spans = rec.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // [10,60) and [90,100)
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  const auto layers = LayerTimes(spans);
  EXPECT_EQ(layers.at("request").count, 1u);
  EXPECT_EQ(layers.at("request").total_ns, 100);
  EXPECT_EQ(layers.at("request").self_ns, 40);
}

class OutputCheck : public ::testing::Test {
 protected:
  const sage::Graph g_ = sage::RmatGraph(9, 4000, 3);
  sage::RunParams params_;

  sage::RunReport Run(const std::string& algorithm) {
    params_.source = SourcePool(g_, 1, 1)[0];
    auto run = sage::AlgorithmRegistry::Run(algorithm, g_, sage::RunContext{}, params_);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.TakeValue();
  }
};

TEST_F(OutputCheck, AcceptsCorrectAndFlagsCorruptedReports) {
  for (const char* algorithm : {"bfs", "bellman-ford", "wbfs", "widest-path",
                                "connectivity", "kcore", "pagerank"}) {
    sage::RunReport report = Run(algorithm);
    ASSERT_TRUE(ShapeOk(algorithm, report.output, g_.num_vertices()));
    EXPECT_EQ(CheckAgainstReference(algorithm, report.output, g_, params_), "")
        << algorithm;
    const uint64_t digest = AnswerDigest(algorithm, report.output);
    // Corrupt one entry of the answer: drop a reached vertex from the BFS
    // tree, split a vertex off its component, or shift one value.
    const sage::vertex_id victim = params_.source == 0 ? 1 : 0;
    std::visit(
        [&](auto& out) {
          using T = std::decay_t<decltype(out)>;
          if constexpr (std::is_same_v<T, std::vector<sage::vertex_id>>) {
            out[victim] = sage::kNoVertex;
          } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
            out[victim] += 1;
          } else if constexpr (std::is_same_v<T, sage::KCoreResult>) {
            out.coreness[victim] += 1;
          } else if constexpr (std::is_same_v<T, sage::PageRankResult>) {
            out.rank[victim] += 1e-6;
          }
        },
        report.output);
    EXPECT_NE(CheckAgainstReference(algorithm, report.output, g_, params_), "")
        << algorithm;
    EXPECT_NE(AnswerDigest(algorithm, report.output), digest) << algorithm;
  }
}

TEST_F(OutputCheck, DigestIgnoresTheWitness) {
  // Two correct BFS trees of a 4-cycle from 0: vertex 2 hangs off 1 or 3.
  const std::vector<sage::vertex_id> a = {0, 0, 1, 0};
  const std::vector<sage::vertex_id> b = {0, 0, 3, 0};
  EXPECT_EQ(AnswerDigest("bfs", a), AnswerDigest("bfs", b));
  // Relabelled components are the same partition.
  const std::vector<sage::vertex_id> c = {5, 5, 9, 9};
  const std::vector<sage::vertex_id> d = {2, 2, 0, 0};
  EXPECT_EQ(AnswerDigest("connectivity", c), AnswerDigest("connectivity", d));
  // A parent cycle is not a tree.
  const std::vector<sage::vertex_id> cyclic = {0, 2, 1, 0};
  EXPECT_NE(AnswerDigest("bfs", cyclic), AnswerDigest("bfs", a));
}

TEST_F(OutputCheck, ShapeRejectsWrongLengthOrType) {
  sage::RunReport report = Run("bfs");
  EXPECT_FALSE(ShapeOk("bfs", report.output, g_.num_vertices() + 1));
  EXPECT_FALSE(ShapeOk("pagerank", report.output, g_.num_vertices()));
}

TEST(RunShapeGuard, RefusesOversubscription) {
  EXPECT_EQ(ValidateShape({.nproc = 4, .clients = 4, .sessions = 4, .width = 1}), "");
  EXPECT_EQ(ValidateShape({.nproc = 4, .clients = 1, .sessions = 1, .width = 4}), "");
  EXPECT_NE(ValidateShape({.nproc = 4, .clients = 4, .sessions = 4, .width = 4}), "");
  EXPECT_NE(ValidateShape({.nproc = 4, .clients = 8, .sessions = 2, .width = 1}), "");
  for (const char* name : {"analytics", "serve", "update-mix"}) {
    for (int nproc : {1, 2, 4, 64}) {
      EXPECT_EQ(ValidateShape(ShapeFor(*FindWorkload(name), nproc)), "") << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
