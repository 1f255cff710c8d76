// Section 5.2 microbenchmark: per-vertex neighbor-count scan over the CSR,
// under three NVRAM graph layouts. The paper measured (ClueWeb):
//   one socket, local graph        7.1 s
//   both sockets, interleaved     26.7 s   (3.7x worse than one socket)
//   both sockets, replicated       4.3 s   (1.6x better than one socket,
//                                           6.2x better than interleaved)
// Here the layouts drive the emulated NUMA model; the reported model time
// shows the same ordering and ratios of the same magnitude.
#include <vector>

#include "bench_common.h"

namespace sage::bench {

namespace {

/// The microbenchmark: count neighbors of every vertex (reduce over the
/// adjacency), write one word per vertex. The scan is bandwidth-bound on a
/// real machine, so the record's emulated device time is what the paper's
/// wall clock measured.
void RunScan(const Graph& g) {
  auto& cm = nvram::Cost();
  auto counts = tabulate<uint64_t>(g.num_vertices(), [&](size_t vi) {
    vertex_id v = static_cast<vertex_id>(vi);
    uint64_t c = 0;
    g.MapNeighbors(v, [&](vertex_id, vertex_id, weight_t) { ++c; });
    return c;
  });
  cm.ChargeWorkWrite(g.num_vertices());
  volatile uint64_t sink = counts[0];
  (void)sink;
}

}  // namespace

SAGE_BENCHMARK(numa_layout,
               "Section 5.2: NVRAM graph layout (local/interleaved/"
               "replicated) vs scan device time") {
  auto in = MakeBenchInput();
  ctx.SetScale(ScaleOf(in.graph));
  auto& cm = nvram::Cost();
  const nvram::AllocPolicy prev_policy = cm.alloc_policy();
  const nvram::GraphLayout prev_layout = cm.graph_layout();
  const int entry_workers = num_workers();
  cm.SetAllocPolicy(nvram::AllocPolicy::kGraphNvram);

  struct Case {
    const char* name;
    nvram::GraphLayout layout;
    int threads;  // 0 = all, -1 = half the workers (one socket's worth)
  };
  std::vector<Case> cases = {
      {"one socket, local graph", nvram::GraphLayout::kReplicated, -1},
      {"both sockets, interleaved", nvram::GraphLayout::kInterleaved, 0},
      {"both sockets, replicated", nvram::GraphLayout::kReplicated, 0},
  };
  std::vector<double> secs;
  for (const auto& c : cases) {
    if (c.threads == -1) {
      Scheduler::Reset(std::max(1, (entry_workers + 1) / 2));
    } else {
      Scheduler::Reset(entry_workers);
    }
    cm.SetGraphLayout(c.layout);
    BenchRecord r = ctx.MeasureFn(c.name, [&] { RunScan(in.graph); });
    r.config = {{"layout", c.layout == nvram::GraphLayout::kInterleaved
                               ? "interleaved"
                               : "replicated"},
                {"sockets", c.threads == -1 ? "one" : "both"}};
    secs.push_back(r.device_seconds);
    ctx.Report(std::move(r));
  }
  ctx.NoteF("interleaved / one-socket : %5.2fx   (paper: 3.7x)",
            secs[1] / secs[0]);
  ctx.NoteF("one-socket / replicated  : %5.2fx   (paper: 1.6x)",
            secs[0] / secs[2]);
  ctx.NoteF("interleaved / replicated : %5.2fx   (paper: 6.2x)",
            secs[1] / secs[2]);

  cm.SetGraphLayout(prev_layout);
  cm.SetAllocPolicy(prev_policy);
  Scheduler::Reset(entry_workers);
}

}  // namespace sage::bench
