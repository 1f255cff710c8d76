// sage_cli: command-line driver for the Sage engine. Runs any registered
// algorithm on a graph loaded from disk (Ligra AdjacencyGraph, edge list,
// or binary .bsadj image, auto-detected; .bsadj opens zero-copy via mmap
// as the NVRAM-resident graph) or generated on the fly, under any device
// configuration, and reports time plus PSAM counters — human-readable by
// default, or as a machine-readable RunReport with -json.
//
//   sage_cli -algo bfs -graph web.adj -src 5
//   sage_cli -algo kcore -gen rmat -logn 20 -edges 16000000
//   sage_cli -algo pagerank -gen rmat -policy memory-mode -threads 4
//   sage_cli -algo triangle-count -gen rmat -json
//   sage_cli -graph web.adj -convert web.bsadj   # text -> binary, once
//   sage_cli -algo bfs -graph web.bsadj -src 5   # then mmap-open per run
//   sage_cli -list
//
// Unknown flags are rejected (non-zero exit, the flag named on stderr).
//
// -convert serializes the loaded (or generated) graph and exits: a
// ".bsadj" destination writes the binary CSR image, anything else the text
// AdjacencyGraph format.
//
// The algorithm set comes from sage::AlgorithmRegistry; this binary holds
// no algorithm table of its own.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/sage.h"

using namespace sage;

namespace {

Result<Graph> LoadGraph(const CommandLine& cmd) {
  if (cmd.Has("graph")) {
    // -weighted forces the weight column on edge lists whose layout
    // defeats column sniffing (adjacency headers still win).
    return ReadGraphAuto(cmd.GetString("graph"), /*symmetric=*/true,
                         /*force_weighted=*/cmd.Has("weighted"));
  }
  std::string gen = cmd.GetString("gen", "rmat");
  int log_n = static_cast<int>(cmd.GetInt("logn", 16));
  uint64_t edges = static_cast<uint64_t>(cmd.GetInt("edges", 1 << 20));
  uint64_t seed = static_cast<uint64_t>(cmd.GetInt("seed", 1));
  if (gen == "rmat") return RmatGraph(log_n, edges, seed);
  if (gen == "uniform") {
    return UniformRandomGraph(vertex_id{1} << log_n, edges, seed);
  }
  if (gen == "grid") {
    vertex_id side = vertex_id{1} << (log_n / 2);
    return GridGraph(side, side);
  }
  return Status::InvalidArgument("unknown generator '" + gen +
                                 "' (rmat|uniform|grid)");
}

void PrintUsage() {
  std::printf(
      "usage: sage_cli -algo <name> [-graph file [-weighted] | -gen "
      "rmat|uniform|grid -logn N -edges M] [-src V]\n"
      "                [-policy %s] [-threads T] [-omega W] [-prefetch] "
      "[-json]\n"
      "                [-updates file] [-compact]\n"
      "                [-cache [-cache-bytes B]] [-deadline-ms D] "
      "[-tenant NAME]\n"
      "                [-repeat N [-updates-between file]] [-stats]\n"
      "       sage_cli [-graph file | -gen ...] -convert out.bsadj|out.adj\n"
      "       sage_cli [-graph file | -gen ...] -convert-sharded out.bsadjx "
      "[-shards K]\n"
      "-convert-sharded splits the graph into K edge-balanced .bsadj\n"
      "segments plus a .bsadjx manifest (default K=4); a .bsadjx -graph\n"
      "input opens the assembled multi-shard mapping, runs bit-identical\n"
      "to the monolithic image, and reports per-shard NVRAM counters in\n"
      "-json.\n"
      "-updates applies an edge-update stream ('u v [w]' inserts, '- u v'\n"
      "removes) as a DRAM delta over the loaded graph before the run;\n"
      "-compact merges the delta into the base (rewriting a mapped .bsadj\n"
      "image in place) first.\n"
      "-cache serves repeat queries from the epoch-keyed result cache;\n"
      "-deadline-ms bounds each run (DeadlineExceeded past it); -repeat\n"
      "submits the query N times (-updates-between applies an update file\n"
      "between repeats, bumping the epoch); -stats prints the service's\n"
      "stats JSON after the runs.\n"
      "algorithms:",
      AllocPolicyChoices());
  for (const auto& entry : AlgorithmRegistry::Get().entries()) {
    std::printf(" %s", entry.info.name.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cmd(argc, argv);
  // Every flag this driver reads, plus -help (which prints the usage);
  // anything else is a typo or a removed flag, and running the defaults
  // instead would hide it.
  const auto unknown = cmd.UnknownFlags(
      {"algo", "cache", "cache-bytes", "compact", "convert",
       "convert-sharded", "deadline-ms", "edges", "gen", "graph", "help",
       "json", "list", "list-names", "logn", "omega", "policy", "prefetch",
       "repeat", "seed", "shards", "src", "stats", "tenant", "threads",
       "updates", "updates-between", "weighted"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag -%s (try -list)\n",
                 unknown.front().c_str());
    return 1;
  }

  if (cmd.Has("list-names")) {
    // One name per line, for scripts (the CTest smoke matrix).
    for (const auto& entry : AlgorithmRegistry::Get().entries()) {
      std::printf("%s\n", entry.info.name.c_str());
    }
    return 0;
  }
  if (cmd.Has("convert") || cmd.Has("convert-sharded")) {
    // Conversion mode: load (or generate), serialize, exit. Destination
    // extension picks the format; .bsadj graphs then reload via mmap.
    // -convert-sharded splits into -shards (default 4) .bsadj segments
    // plus the .bsadjx manifest at the destination path.
    const bool sharded = cmd.Has("convert-sharded");
    std::string out = cmd.GetString(sharded ? "convert-sharded" : "convert");
    if (out.empty()) {
      std::fprintf(stderr, "-convert%s needs a destination path\n",
                   sharded ? "-sharded" : "");
      return 1;
    }
    auto loaded = LoadGraph(cmd);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    const Graph& g = loaded.ValueOrDie();
    Status st;
    uint32_t shards = 0;
    if (sharded) {
      shards = static_cast<uint32_t>(cmd.GetInt("shards", 4));
      st = WriteShardedGraph(g, out, shards);
    } else {
      st = out.ends_with(".bsadj") ? WriteBinaryGraph(g, out)
                                   : WriteAdjacencyGraph(g, out);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: n=%u m=%llu%s%s", out.c_str(), g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()),
                g.weighted() ? " weighted" : "",
                g.symmetric() ? " symmetric" : "");
    if (sharded) std::printf(" shards=%u", shards);
    std::printf("\n");
    return 0;
  }

  if (cmd.Has("list") || !cmd.Has("algo")) {
    PrintUsage();
    return cmd.Has("list") ? 0 : 1;
  }

  std::string algo = cmd.GetString("algo");
  if (AlgorithmRegistry::Get().Find(algo) == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s' (try -list)\n",
                 algo.c_str());
    return 1;
  }

  RunContext ctx;
  auto policy = ParseAllocPolicy(cmd.GetString("policy", "graph-nvram"));
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  ctx.policy = policy.ValueOrDie();
  ctx.omega = cmd.GetDouble("omega", ctx.omega);
  // Page-frontier prefetching; only effective with a mapped .bsadj graph.
  ctx.prefetch = cmd.Has("prefetch");
  // The scheduler's width is process setup: apply it before loading, so
  // generation and building run at it too, and before any run starts.
  const int threads = static_cast<int>(cmd.GetInt("threads", 0));
  if (threads > 0) Scheduler::Reset(threads);

  // Load through Engine::FromFile when reading a file so a mapped .bsadj
  // image's path is remembered and -compact can rewrite it in place.
  auto engine_or = [&]() -> Result<Engine> {
    if (cmd.Has("graph") && !cmd.Has("weighted")) {
      return Engine::FromFile(cmd.GetString("graph"), ctx);
    }
    auto loaded = LoadGraph(cmd);
    if (!loaded.ok()) return loaded.status();
    return Engine(loaded.TakeValue(), ctx);
  }();
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  Engine engine = engine_or.TakeValue();

  RunParams params;
  params.source = static_cast<vertex_id>(cmd.GetInt("src", 0));

  const bool json = cmd.Has("json");

  if (cmd.Has("updates")) {
    auto updates = ReadEdgeUpdates(cmd.GetString("updates"));
    if (!updates.ok()) {
      std::fprintf(stderr, "%s\n", updates.status().ToString().c_str());
      return 1;
    }
    auto applied = engine.ApplyUpdates(updates.ValueOrDie());
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
      return 1;
    }
    if (!json) {
      const auto& stats = applied.ValueOrDie();
      std::printf("updates: applied %llu -> epoch %llu, delta-edges=%llu\n",
                  static_cast<unsigned long long>(stats.applied),
                  static_cast<unsigned long long>(stats.epoch),
                  static_cast<unsigned long long>(stats.delta_edges));
    }
  }
  if (cmd.Has("compact")) {
    auto compacted = engine.Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "%s\n", compacted.status().ToString().c_str());
      return 1;
    }
    if (!json) {
      const auto& stats = compacted.ValueOrDie();
      std::printf("compacted: epoch %llu, m=%llu%s\n",
                  static_cast<unsigned long long>(stats.epoch),
                  static_cast<unsigned long long>(stats.num_edges),
                  stats.image_rewritten ? " (image rewritten)" : "");
    }
  }
  if (!json) {
    auto stats = ComputeStats(engine.graph());
    std::printf("graph: %s\n", stats.ToString().c_str());
  }

  // Serving path: every run goes through the engine's QueryService. The
  // service is sized on first use, so the cache budget must be configured
  // before the first submission.
  QueryService::Options service_options;
  if (cmd.Has("cache")) {
    service_options.cache_bytes = static_cast<uint64_t>(
        cmd.GetInt("cache-bytes", 256ll << 20));
  }
  engine.service(service_options);

  RunContext query_ctx = ctx;
  query_ctx.deadline_ms = cmd.GetDouble("deadline-ms", 0);
  const std::string tenant = cmd.GetString("tenant", "default");
  const int repeat =
      std::max(1, static_cast<int>(cmd.GetInt("repeat", 1)));
  for (int i = 0; i < repeat; ++i) {
    auto run = engine.Submit(algo, params, query_ctx, tenant).get();
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    const RunReport& report = run.ValueOrDie();
    if (json) {
      std::printf("%s\n", report.ToJson().c_str());
    } else {
      std::printf("%s", report.ToString().c_str());
    }
    if (i + 1 < repeat && cmd.Has("updates-between")) {
      auto updates = ReadEdgeUpdates(cmd.GetString("updates-between"));
      if (!updates.ok()) {
        std::fprintf(stderr, "%s\n", updates.status().ToString().c_str());
        return 1;
      }
      auto applied = engine.ApplyUpdates(updates.ValueOrDie());
      if (!applied.ok()) {
        std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
        return 1;
      }
      if (!json) {
        std::printf("updates-between: epoch %llu\n",
                    static_cast<unsigned long long>(
                        applied.ValueOrDie().epoch));
      }
    }
  }
  if (cmd.Has("stats")) {
    std::printf("%s\n", engine.service().StatsJson().c_str());
  }
  return 0;
}
