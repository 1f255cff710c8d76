// Registration of the 18 built-in Table-1 algorithms.
//
// Each block binds one algorithm's metadata (name, paper row label, input
// requirements) to a runner that invokes the kernel with the context's
// EdgeMapOptions and the RunParams knobs, plus a summarizer that digests
// the output into one line. Runners execute inside the PSAM counter frame
// (the report measures exactly the kernel); summarizers execute after it.
// Registration order is Table 1 row order; benchmarks iterate entries()
// to reproduce the paper's figures.
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/registry.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace sage::internal {

namespace {

ConnectivityOptions MakeConnectivityOptions(const RunContext& ctx,
                                            const RunParams& p) {
  ConnectivityOptions opts;
  opts.beta = p.ldd_beta;
  opts.seed = p.seed;
  opts.edge_map = ctx.edge_map;
  return opts;
}

void Must(const Status& status) {
  SAGE_CHECK_MSG(status.ok(), "builtin registration failed: %s",
                 status.ToString().c_str());
}

std::string CountReachedParents(const AlgoOutput& out) {
  const auto& parents = std::get<std::vector<vertex_id>>(out);
  size_t reached =
      count_if(parents, [](vertex_id x) { return x != kNoVertex; });
  return "reached=" + std::to_string(reached);
}

std::string CountReachedDistances(const AlgoOutput& out) {
  const auto& dist = std::get<std::vector<uint64_t>>(out);
  size_t reached = count_if(dist, [](uint64_t x) { return x != kInfDist; });
  return "reached=" + std::to_string(reached);
}

std::string CountEdges(const char* label, const AlgoOutput& out) {
  const auto& edges =
      std::get<std::vector<std::pair<vertex_id, vertex_id>>>(out);
  return std::string(label) + "=" + std::to_string(edges.size());
}

}  // namespace

void RegisterBuiltinAlgorithms(AlgorithmRegistry& r) {
  Must(r.Register(
      {.name = "bfs",
       .table1_row = "BFS",
       .needs_source = true,
       .description = "breadth-first search tree from a source"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return Bfs(g, p.source, ctx.edge_map);
      },
      CountReachedParents));

  Must(r.Register(
      {.name = "wbfs",
       .table1_row = "wBFS",
       .needs_weights = true,
       .needs_source = true,
       .description = "weighted BFS (bucketed SSSP for small weights)"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return WeightedBfs(g, p.source, ctx.edge_map);
      },
      CountReachedDistances));

  Must(r.Register(
      {.name = "bellman-ford",
       .table1_row = "Bellman-Ford",
       .needs_weights = true,
       .needs_source = true,
       .description = "single-source shortest paths"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return BellmanFord(g, p.source, ctx.edge_map);
      },
      CountReachedDistances));

  Must(r.Register(
      {.name = "widest-path",
       .table1_row = "Widest-Path",
       .needs_weights = true,
       .needs_source = true,
       .description = "single-source widest (bottleneck) paths"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return WidestPathBucketed(g, p.source, ctx.edge_map);
      },
      [](const AlgoOutput& out) {
        const auto& cap = std::get<std::vector<uint64_t>>(out);
        size_t reached = count_if(cap, [](uint64_t x) { return x > 0; });
        return "reached=" + std::to_string(reached);
      }));

  Must(r.Register(
      {.name = "betweenness",
       .table1_row = "Betweenness",
       .needs_source = true,
       .description = "single-source betweenness dependency scores"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return Betweenness(g, p.source, ctx.edge_map);
      },
      [](const AlgoOutput& out) {
        const auto& bc = std::get<std::vector<double>>(out);
        double best = reduce_max<double>(
            bc.size(), [&](size_t v) { return bc[v]; }, 0.0);
        return "max_dependency=" + std::to_string(best);
      }));

  Must(r.Register(
      {.name = "spanner",
       .table1_row = "O(k)-Spanner",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamSpannerK,
       .description = "O(k)-stretch graph spanner"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        SpannerOptions opts;
        opts.k = p.spanner_k;
        opts.seed = p.seed;
        opts.edge_map = ctx.edge_map;
        return Spanner(g, opts);
      },
      [](const AlgoOutput& out) { return CountEdges("spanner_edges", out); }));

  Must(r.Register(
      {.name = "ldd",
       .table1_row = "LDD",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamLddBeta,
       .description = "low-diameter decomposition"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return LowDiameterDecomposition(g, p.ldd_beta, p.seed, ctx.edge_map);
      },
      [](const AlgoOutput& out) {
        return "clusters=" +
               std::to_string(std::get<LddResult>(out).num_clusters);
      }));

  Must(r.Register(
      {.name = "connectivity",
       .table1_row = "Connectivity",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamLddBeta,
       .description = "connected-component labels"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return Connectivity(g, MakeConnectivityOptions(ctx, p));
      },
      [](const AlgoOutput& out) {
        auto sorted = parallel_sort(std::get<std::vector<vertex_id>>(out));
        return "components=" +
               std::to_string(unique_sorted(sorted).size());
      }));

  Must(r.Register(
      {.name = "spanning-forest",
       .table1_row = "SpanningForest",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamLddBeta,
       .description = "spanning forest edge set"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return SpanningForest(g, MakeConnectivityOptions(ctx, p));
      },
      [](const AlgoOutput& out) { return CountEdges("forest_edges", out); }));

  Must(r.Register(
      {.name = "biconnectivity",
       .table1_row = "Biconnectivity",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamLddBeta,
       .description = "biconnected-component labels"},
      [](const Graph& g, const RunContext& ctx, const RunParams& p)
          -> AlgoOutput {
        return Biconnectivity(g, MakeConnectivityOptions(ctx, p));
      },
      [](const AlgoOutput& out) {
        const auto& bicc = std::get<BiconnectivityResult>(out);
        std::vector<vertex_id> labels;
        for (vertex_id label : bicc.node_label) {
          if (label != kNoVertex) labels.push_back(label);
        }
        auto sorted = parallel_sort(labels);
        return "bicc_components=" +
               std::to_string(unique_sorted(sorted).size());
      }));

  Must(r.Register(
      {.name = "mis",
       .table1_row = "MIS",
       .requires_symmetric = true,
       .params_used = kParamSeed,
       .description = "maximal independent set"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        return MaximalIndependentSet(g, p.seed);
      },
      [](const AlgoOutput& out) {
        const auto& mis = std::get<std::vector<uint8_t>>(out);
        size_t in_set = count_if(mis, [](uint8_t m) { return m == 1; });
        return "mis_size=" + std::to_string(in_set);
      }));

  Must(r.Register(
      {.name = "maximal-matching",
       .table1_row = "Maximal-Matching",
       .requires_symmetric = true,
       .params_used = kParamSeed | kParamFilterBlock,
       .description = "maximal matching edge set"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        return MaximalMatching(g, p.seed, p.filter_block_size);
      },
      [](const AlgoOutput& out) { return CountEdges("matched_pairs", out); }));

  Must(r.Register(
      {.name = "coloring",
       .table1_row = "Graph-Coloring",
       .requires_symmetric = true,
       .params_used = kParamSeed,
       .description = "greedy LLF graph coloring"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        return GraphColoring(g, p.seed);
      },
      [](const AlgoOutput& out) {
        const auto& colors = std::get<std::vector<uint32_t>>(out);
        uint32_t palette =
            1 + reduce_max<uint32_t>(
                    colors.size(), [&](size_t v) { return colors[v]; }, 0);
        return "colors=" + std::to_string(palette);
      }));

  Must(r.Register(
      {.name = "set-cover",
       .table1_row = "Apx-Set-Cover",
       .params_used = kParamSeed | kParamSetCoverEps | kParamFilterBlock,
       .description = "bucketed approximate set cover"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        SetCoverOptions opts;
        opts.eps = p.set_cover_eps;
        opts.seed = p.seed;
        opts.filter_block_size = p.filter_block_size;
        return ApproximateSetCover(g, opts);
      },
      [](const AlgoOutput& out) {
        const auto& cover = std::get<std::vector<vertex_id>>(out);
        return "cover_size=" + std::to_string(cover.size());
      }));

  Must(r.Register(
      {.name = "kcore",
       .table1_row = "k-Core",
       .requires_symmetric = true,
       .description = "coreness of every vertex (peeling)"},
      [](const Graph& g, const RunContext&, const RunParams&) -> AlgoOutput {
        return KCore(g);
      },
      [](const AlgoOutput& out) {
        const auto& result = std::get<KCoreResult>(out);
        return "k_max=" + std::to_string(result.max_core) +
               " rounds=" + std::to_string(result.rounds);
      }));

  Must(r.Register(
      {.name = "densest-subgraph",
       .table1_row = "Apx-Dens-Subgraph",
       .requires_symmetric = true,
       .description = "2(1+eps)-approximate densest subgraph"},
      [](const Graph& g, const RunContext&, const RunParams&) -> AlgoOutput {
        return ApproxDensestSubgraph(g);
      },
      [](const AlgoOutput& out) {
        const auto& result = std::get<DensestSubgraphResult>(out);
        return "density=" + std::to_string(result.density) +
               " members=" + std::to_string(result.members.size());
      }));

  Must(r.Register(
      {.name = "triangle-count",
       .table1_row = "Triangle-Count",
       .requires_symmetric = true,
       .params_used = kParamFilterBlock,
       .description = "triangle count via filtered intersection"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        return TriangleCount(g, p.filter_block_size);
      },
      [](const AlgoOutput& out) {
        return "triangles=" +
               std::to_string(std::get<TriangleCountResult>(out).triangles);
      }));

  Must(r.Register(
      {.name = "pagerank",
       .table1_row = "PageRank",
       .params_used = kParamPagerank,
       .description = "PageRank to convergence"},
      [](const Graph& g, const RunContext&, const RunParams& p) -> AlgoOutput {
        return PageRank(g, p.pagerank_epsilon, p.pagerank_max_iters);
      },
      [](const AlgoOutput& out) {
        return "iterations=" +
               std::to_string(std::get<PageRankResult>(out).iterations);
      }));
}

}  // namespace sage::internal
