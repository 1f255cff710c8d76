// Dynamic-update throughput over the delta overlay (graph/delta.h): how
// fast Engine::ApplyUpdates ingests edge batches into DRAM overlay epochs
// over the immutable base image, how the engine serves queries while a
// writer mutates concurrently (the semi-asymmetric serving story under
// churn), and what one compaction of the accumulated delta costs.
//
// Rows:
//   apply-batches    wall = ingesting every batch back to back on a fresh
//                    engine; metrics updates_per_sec / batches_per_sec.
//   mixed read-write wall = a full query burst submitted through
//                    Engine::Submit while the main thread applies the same
//                    update stream; metrics queries_per_sec and
//                    updates_per_sec of the overlapped phase.
//   compact          wall = folding the accumulated overlay into a fresh
//                    in-memory base; metric edges_per_sec of the rewrite.
//   overlay bfs      wall = one width-1 bfs over the epoch four batches
//                    leave (update-mix's bfs misses run over such epochs,
//                    compacted every four batches); carries that run's
//                    PSAM counters.
//
// The other rows report throughput, not per-run device traffic, so they
// carry no PSAM counters (each query charges its own run context; cf.
// bench_concurrent_queries.cc).
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"

namespace sage::bench {

namespace {

/// Deterministic update stream: hashed-endpoint inserts with every fourth
/// slot a remove (of a hashed earlier pair - often present, sometimes an
/// absent-edge no-op, both realistic ingestion work).
std::vector<std::vector<EdgeUpdate>> MakeBatches(vertex_id n, int batches,
                                                 int per_batch) {
  Random rng(7);
  std::vector<std::vector<EdgeUpdate>> out(batches);
  uint64_t slot = 0;
  for (int b = 0; b < batches; ++b) {
    out[b].reserve(per_batch);
    for (int i = 0; i < per_batch; ++i, ++slot) {
      vertex_id u = static_cast<vertex_id>(rng.ith_rand(2 * slot) % n);
      vertex_id v = static_cast<vertex_id>(rng.ith_rand(2 * slot + 1) % n);
      if (i % 4 == 3) {
        uint64_t back = rng.ith_rand(3 * slot) % (slot + 1);
        out[b].push_back(EdgeUpdate::Remove(
            static_cast<vertex_id>(rng.ith_rand(2 * back) % n),
            static_cast<vertex_id>(rng.ith_rand(2 * back + 1) % n)));
      } else {
        out[b].push_back(EdgeUpdate::Insert(u, v));
      }
    }
  }
  return out;
}

}  // namespace

SAGE_BENCHMARK(update_throughput,
               "Edge-update ingestion, mixed read/write serving, and "
               "compaction over the DRAM delta overlay") {
  auto in = MakeBenchInput();
  ctx.SetScale(ScaleOf(in.graph));
  const vertex_id n = in.graph.num_vertices();

  constexpr int kBatches = 16;
  constexpr int kPerBatch = 256;
  constexpr int kQueries = 24;
  const auto batches = MakeBatches(n, kBatches, kPerBatch);
  const uint64_t total_updates = uint64_t{kBatches} * kPerBatch;

  // Width-1 queries/merges, as in the concurrent-queries bench: epochs and
  // sessions are the measured concurrency, not intra-run parallelism.
  const int entry_workers = num_workers();
  Scheduler::Reset(1);

  // --- apply-batches: pure ingestion ------------------------------------
  {
    std::vector<double> samples;
    for (int rep = 0; rep < ctx.warmup() + ctx.repetitions(); ++rep) {
      Engine engine(in.graph);
      Timer timer;
      for (const auto& batch : batches) {
        auto stats = engine.ApplyUpdates(batch);
        SAGE_CHECK_MSG(stats.ok(), "update_throughput: %s",
                       stats.status().ToString().c_str());
      }
      if (rep >= ctx.warmup()) samples.push_back(timer.Seconds());
    }
    BenchRecord r = ctx.NewRecord("apply-batches");
    r.AddConfig("batches", std::to_string(kBatches));
    r.AddConfig("batch_size", std::to_string(kPerBatch));
    r.wall = BenchStats::FromSamples(std::move(samples));
    r.model_seconds = r.wall.min;
    double ups = r.wall.median > 0
                     ? static_cast<double>(total_updates) / r.wall.median
                     : 0.0;
    r.AddMetric("updates_per_sec", ups);
    r.AddMetric("batches_per_sec",
                r.wall.median > 0 ? kBatches / r.wall.median : 0.0);
    ctx.Report(r);
    ctx.NoteF("apply-batches: %.0f updates/sec (%d batches of %d, one "
              "overlay epoch each)",
              ups, kBatches, kPerBatch);
  }

  // --- mixed read-write: queries racing the writer ----------------------
  {
    std::vector<double> samples;
    for (int rep = 0; rep < ctx.warmup() + ctx.repetitions(); ++rep) {
      Engine engine(in.graph);
      Timer timer;
      std::vector<std::future<Result<RunReport>>> futures;
      futures.reserve(kQueries);
      for (int q = 0; q < kQueries; ++q) {
        RunParams params;
        params.source = static_cast<vertex_id>(q % n);
        futures.push_back(
            engine.Submit(q % 2 == 0 ? "bfs" : "connectivity", params));
      }
      // The sessions drain the burst while this thread commits epochs.
      for (const auto& batch : batches) {
        auto stats = engine.ApplyUpdates(batch);
        SAGE_CHECK_MSG(stats.ok(), "update_throughput: %s",
                       stats.status().ToString().c_str());
      }
      for (auto& f : futures) {
        auto run = f.get();
        SAGE_CHECK_MSG(run.ok(), "update_throughput: %s",
                       run.status().ToString().c_str());
      }
      if (rep >= ctx.warmup()) samples.push_back(timer.Seconds());
    }
    BenchRecord r = ctx.NewRecord("mixed read-write");
    r.AddConfig("queries", std::to_string(kQueries));
    r.AddConfig("updates", std::to_string(total_updates));
    r.wall = BenchStats::FromSamples(std::move(samples));
    r.model_seconds = r.wall.min;
    double qps =
        r.wall.median > 0 ? kQueries / r.wall.median : 0.0;
    double ups = r.wall.median > 0
                     ? static_cast<double>(total_updates) / r.wall.median
                     : 0.0;
    r.AddMetric("queries_per_sec", qps);
    r.AddMetric("updates_per_sec", ups);
    ctx.Report(r);
    ctx.NoteF("mixed read-write: %.1f queries/sec against %.0f updates/sec "
              "(snapshot-isolated epochs)",
              qps, ups);
  }

  // --- compact: folding the accumulated overlay -------------------------
  {
    std::vector<double> samples;
    uint64_t merged_edges = 0;
    for (int rep = 0; rep < ctx.warmup() + ctx.repetitions(); ++rep) {
      Engine engine(in.graph);
      for (const auto& batch : batches) {
        SAGE_CHECK(engine.ApplyUpdates(batch).ok());
      }
      Timer timer;
      auto stats = engine.Compact();
      SAGE_CHECK_MSG(stats.ok(), "update_throughput: %s",
                     stats.status().ToString().c_str());
      merged_edges = stats.ValueOrDie().num_edges;
      if (rep >= ctx.warmup()) samples.push_back(timer.Seconds());
    }
    BenchRecord r = ctx.NewRecord("compact");
    r.AddConfig("batches", std::to_string(kBatches));
    r.wall = BenchStats::FromSamples(std::move(samples));
    r.model_seconds = r.wall.min;
    r.AddMetric("edges_per_sec",
                r.wall.median > 0 ? merged_edges / r.wall.median : 0.0);
    ctx.Report(r);
    ctx.NoteF("compact: merged %llu directed edges in %.4fs median",
              static_cast<unsigned long long>(merged_edges), r.wall.median);
  }

  // --- overlay bfs: a kernel miss over an updated epoch -----------------
  {
    constexpr int kOverlayBatches = 4;
    Engine engine(in.graph);
    for (int b = 0; b < kOverlayBatches; ++b) {
      SAGE_CHECK(engine.ApplyUpdates(batches[b]).ok());
    }
    const Graph epoch = engine.graph();
    BenchRecord r = ctx.MeasureAlgorithm("overlay bfs", "bfs", epoch, epoch,
                                         RunContext::Current());
    r.AddConfig("batches", std::to_string(kOverlayBatches));
    r.AddConfig("batch_size", std::to_string(kPerBatch));
    r.AddMetric("overlay_edges", static_cast<double>(epoch.delta_edges()));
    ctx.Report(r);
    ctx.NoteF("overlay bfs: %.4fs median over an epoch of %llu overlaid "
              "edge slots",
              r.wall.median,
              static_cast<unsigned long long>(epoch.delta_edges()));
  }

  Scheduler::Reset(entry_workers);
}

}  // namespace sage::bench
