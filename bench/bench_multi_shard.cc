// Multi-shard graph backend: BFS wall time and NVRAM read balance as one
// image is split into 1/2/4/8 edge-balanced .bsadj segments, against the
// same graph mapped as one monolithic .bsadj image.
//
// Every row runs BFS through the engine facade with the plain edgeMap at
// the driver's scheduler width. A sharded image is assembled into one
// contiguous CSR, so every row charges the same PSAM counters; the rows
// differ only in wall time (`wall_vs_monolithic`, monolithic mean wall
// over the row's) and in how evenly the run's NVRAM graph reads spread
// across the shards (`read_balance_max_over_mean`: max-shard over
// mean-shard words; 1.0 = perfectly edge-balanced, and 1.0 for the
// monolithic image).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

namespace sage::bench {

namespace {

/// Removes the manifest and its segment files (best-effort; the files
/// live in a mkdtemp directory that is removed last).
void RemoveShardedFiles(const std::string& manifest, uint32_t shards) {
  std::string stem = manifest.substr(0, manifest.size() - 7);  // ".bsadjx"
  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(
        (stem + ".shard" + std::to_string(s) + ".bsadj").c_str());
  }
  std::remove(manifest.c_str());
}

/// Max-shard over mean-shard NVRAM read words of one attributed BFS run
/// (1.0 when the graph is not sharded). Attribution never perturbs the
/// totals, so the measured rows are unaffected.
double ReadBalance(const Graph& g, const Graph& weighted,
                   const RunContext& rctx) {
  auto run = AlgorithmRegistry::Run("bfs", g, rctx, RunParams{}, &weighted);
  SAGE_CHECK_MSG(run.ok(), "%s", run.status().ToString().c_str());
  const RunReport& report = run.ValueOrDie();
  uint64_t max_reads = 0, sum_reads = 0;
  for (const auto& shard : report.per_shard) {
    max_reads = std::max(max_reads, shard.nvram_reads);
    sum_reads += shard.nvram_reads;
  }
  return sum_reads > 0 ? static_cast<double>(max_reads) *
                             static_cast<double>(report.per_shard.size()) /
                             static_cast<double>(sum_reads)
                       : 1.0;
}

}  // namespace

SAGE_BENCHMARK(multi_shard,
               "Multi-shard backend: BFS wall time vs the monolithic image "
               "and per-shard NVRAM read balance over 1/2/4/8 segments") {
  auto in = MakeBenchInput();
  ctx.SetScale(ScaleOf(in.graph));

  char tmpl[] = "/tmp/sage_bench_multi_shard_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  SAGE_CHECK_MSG(dir != nullptr, "mkdtemp failed for the shard images");
  const RunContext rctx;

  const std::string mono_path = std::string(dir) + "/g.bsadj";
  Status mono_written = WriteBinaryGraph(in.graph, mono_path);
  SAGE_CHECK_MSG(mono_written.ok(), "%s", mono_written.ToString().c_str());
  double mono_wall = 0.0;
  {
    auto mapped = MapBinaryGraph(mono_path);
    SAGE_CHECK_MSG(mapped.ok(), "%s", mapped.status().ToString().c_str());
    const Graph& g = mapped.ValueOrDie();
    BenchRecord r =
        ctx.MeasureAlgorithm("bfs monolithic", "bfs", g, in.weighted, rctx);
    r.AddConfig("image", "bsadj");
    mono_wall = r.wall.mean;
    r.AddMetric("wall_vs_monolithic", 1.0);
    r.AddMetric("read_balance_max_over_mean", 1.0);
    ctx.Report(std::move(r));
  }
  std::remove(mono_path.c_str());

  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  std::vector<double> ratios;
  for (uint32_t k : shard_counts) {
    const std::string manifest =
        std::string(dir) + "/g" + std::to_string(k) + ".bsadjx";
    Status written = WriteShardedGraph(in.graph, manifest, k);
    SAGE_CHECK_MSG(written.ok(), "%s", written.ToString().c_str());
    auto mapped = MapShardedGraph(manifest);
    SAGE_CHECK_MSG(mapped.ok(), "%s", mapped.status().ToString().c_str());
    const Graph& g = mapped.ValueOrDie();

    BenchRecord r = ctx.MeasureAlgorithm(
        "bfs " + std::to_string(k) + " shard(s)", "bfs", g, in.weighted,
        rctx);
    r.AddConfig("shards", std::to_string(k));
    const double ratio = r.wall.mean > 0 ? mono_wall / r.wall.mean : 0.0;
    r.AddMetric("wall_vs_monolithic", ratio);
    r.AddMetric("read_balance_max_over_mean",
                ReadBalance(g, in.weighted, rctx));
    ratios.push_back(ratio);
    ctx.Report(std::move(r));
    RemoveShardedFiles(manifest, k);
  }
  ::rmdir(dir);

  ctx.NoteF("BFS wall vs the monolithic image at width %d: 1 shard %4.2fx, "
            "2 shards %4.2fx, 4 shards %4.2fx, 8 shards %4.2fx",
            num_workers(), ratios[0], ratios[1], ratios[2], ratios[3]);
}

}  // namespace sage::bench
