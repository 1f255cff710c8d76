// Output checks: every report's shape and NVRAM writes, a canonical digest
// for comparing runs of one key, and a comparison with the sequential
// references in src/algorithms/reference.
#pragma once

#include <cstdint>
#include <string>

#include "api/run_context.h"
#include "api/run_report.h"
#include "graph/graph.h"

namespace perfbench {

/// O(1) check that the output holds the result type the algorithm returns,
/// sized for `n` vertices.
bool ShapeOk(const std::string& algorithm, const sage::AlgoOutput& output,
             sage::vertex_id n);

/// Digest of the answer, not of the witness the kernel happened to pick:
/// BFS parent trees digest as their level arrays and component labels as
/// first-occurrence ids, so any two correct runs of one (algorithm,
/// params, epoch) key digest equal, cache hit or not.
uint64_t AnswerDigest(const std::string& algorithm,
                      const sage::AlgoOutput& output);

/// Compares `output` with the sequential reference on `g` (the snapshot
/// the request ran on; weighted algorithms on its weighted twin for
/// params.weight_seed). Returns "" on a match, else what differs.
std::string CheckAgainstReference(const std::string& algorithm,
                                  const sage::AlgoOutput& output,
                                  const sage::Graph& g,
                                  const sage::RunParams& params);

}  // namespace perfbench
