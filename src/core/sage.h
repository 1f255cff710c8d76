// Umbrella header for the Sage engine: include this to use the full
// semi-asymmetric toolkit (graphs, traversal, filtering, bucketing, and
// the engine facade).
//
//   #include "core/sage.h"
//
//   // Engine API: one typed entry point for all 18 Table-1 algorithms.
//   sage::Engine engine(sage::RmatGraph(20, 1 << 24, /*seed=*/1));
//   auto run = engine.Run("bfs", {.source = 0});
//   std::puts(run.ValueOrDie().ToJson().c_str());
//
//   // Or call the kernels directly when composing custom pipelines:
//   auto parents = sage::Bfs(engine.graph(), /*source=*/0);
//
// Layers, bottom to top: parallel/ (scheduler + primitives), nvram/ (PSAM
// cost model), graph/ (storage, IO, generators), core/ (EdgeMap,
// VertexSubset, bucketing, filtering), algorithms/ (the 18 kernels), and
// api/ (Engine, AlgorithmRegistry, RunContext, RunReport). See README.md
// for a tour and examples/ for runnable programs.
#pragma once

#include "algorithms/algorithms.h"
#include "api/engine.h"
#include "api/query_service.h"
#include "api/registry.h"
#include "api/run_context.h"
#include "api/run_report.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/bucketing.h"
#include "core/edge_map.h"
#include "core/graph_filter.h"
#include "core/histogram.h"
#include "core/vertex_subset.h"
#include "graph/binary_format.h"
#include "graph/builder.h"
#include "graph/compressed_graph.h"
#include "graph/delta.h"
#include "graph/epoch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "nvram/cost_model.h"
#include "nvram/execution_context.h"
#include "nvram/memory_tracker.h"
#include "parallel/parallel.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"
