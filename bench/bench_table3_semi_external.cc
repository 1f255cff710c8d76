// Table 3: Sage vs semi-external-memory engines. FlashGraph / Mosaic /
// GridGraph are closed setups tied to SSD arrays; the comparison here runs
// a faithful GridGraph-like 2-D streaming engine (vertex-centric, whole
// blocks streamed from the slow tier each superstep) against Sage on the
// same emulated device, for the problems Table 3 reports.
// A second dimension of the semi-external story: genuinely cold mmap
// traversals, where the .bsadj image is evicted from DRAM first and the
// first touch pays real storage faults - measured with the page-frontier
// prefetch pipeline off and on.
#include <cstdio>
#include <functional>

#include "baselines/grid_engine.h"
#include "bench_common.h"
#include "graph/prefetch.h"

namespace sage::bench {

SAGE_BENCHMARK(table3_semi_external,
               "Table 3: Sage vs a GridGraph-like semi-external streaming "
               "engine") {
  auto in = MakeBenchInput();
  ctx.SetScale(ScaleOf(in.graph));
  const Graph& g = in.graph;
  auto& cm = nvram::Cost();
  const nvram::AllocPolicy prev = cm.alloc_policy();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);

  baselines::GridEngine grid(g, 16);
  std::vector<uint32_t> deg(g.num_vertices());
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    deg[v] = g.degree_uncharged(v);
  }

  struct Row {
    const char* problem;
    std::function<void()> sage_run;
    std::function<void()> grid_run;
  };
  std::vector<double> ranks(g.num_vertices(),
                            1.0 / std::max<vertex_id>(g.num_vertices(), 1));
  std::vector<Row> rows = {
      {"BFS", [&] { (void)Bfs(g, 0); }, [&] { (void)grid.Bfs(0); }},
      {"Connectivity", [&] { (void)Connectivity(g); },
       [&] { (void)grid.Connectivity(); }},
      {"PageRank(1 iter)", [&] { (void)PageRankIteration(g); },
       [&] { (void)grid.PageRankIteration(ranks, deg); }},
  };

  for (auto& row : rows) {
    BenchRecord sage_r = Measure(ctx, row.problem, SageNvram(), row.sage_run);
    BenchRecord grid_r = ctx.MeasureFn(row.problem, row.grid_run);
    grid_r.config = {{"system", "GridEngine"},
                     {"policy", nvram::AllocPolicyName(
                                    nvram::AllocPolicy::kGraphNvram)}};
    ctx.NoteF("%s: GridEngine / Sage device time = %.1fx", row.problem,
              grid_r.device_seconds / sage_r.device_seconds);
    ctx.Report(std::move(sage_r));
    ctx.Report(std::move(grid_r));
  }
  cm.SetAllocPolicy(prev);

  // Cold semi-external rows: Sage over the same graph as an evicted mmap
  // image, prefetch pipeline off vs on. One shot each (repetition would
  // re-warm the page cache this row exists to start cold from).
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string image_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/bench_table3_cold.bsadj";
  SAGE_CHECK(WriteBinaryGraph(g, image_path).ok());
  double cold_off = 0.0, cold_on = 0.0;
  for (bool prefetch_on : {false, true}) {
    auto mapped = MapBinaryGraph(image_path);
    SAGE_CHECK_MSG(mapped.ok(), "%s", mapped.status().ToString().c_str());
    Graph cg = mapped.TakeValue();
    Status evicted = EvictGraphPages(cg, image_path);
    SAGE_CHECK_MSG(evicted.ok(), "%s", evicted.ToString().c_str());

    RunContext rctx;
    rctx.prefetch = prefetch_on;
    Timer t;
    auto run = AlgorithmRegistry::Run("bfs", cg, rctx);
    SAGE_CHECK_MSG(run.ok(), "%s", run.status().ToString().c_str());
    const double seconds = t.Seconds();
    (prefetch_on ? cold_on : cold_off) = seconds;
    const RunReport& report = run.ValueOrDie();

    BenchRecord r = ctx.NewRecord(prefetch_on
                                      ? "BFS cold mmap (prefetch on)"
                                      : "BFS cold mmap (prefetch off)");
    r.repetitions = 1;
    r.warmup = 0;
    r.AddConfig("system", "Sage-NVRAM");
    r.AddConfig("page_cache", "cold");
    r.AddConfig("prefetch", prefetch_on ? "on" : "off");
    r.wall = BenchStats::FromSamples({seconds});
    r.has_counters = true;
    r.counters = report.cost;
    r.omega = report.omega;
    r.peak_intermediate_bytes = report.peak_intermediate_bytes;
    r.AddMetric("prefetch_waves", static_cast<double>(report.prefetch_waves));
    r.AddMetric("pages_prefetched",
                static_cast<double>(report.pages_prefetched));
    r.AddMetric("pages_faulted", static_cast<double>(report.pages_faulted));
    ctx.Report(std::move(r));
  }
  std::remove(image_path.c_str());
  ctx.NoteF("cold mmap BFS: %.3fs prefetch off, %.3fs prefetch on (%+.1f%%)",
            cold_off, cold_on,
            cold_off > 0.0 ? (cold_on - cold_off) / cold_off * 100.0 : 0.0);

  ctx.Note("paper: Sage 9.3x faster than FlashGraph, 12x than Mosaic, and "
           "up to ~15690x (BFS) / 359x (CC) than GridGraph on "
           "Twitter-scale inputs.");
}

}  // namespace sage::bench
