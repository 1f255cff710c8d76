// Seeded inputs: everything a run feeds the engine is a pure function of
// the workload seed, so two runs with one seed replay the same requests
// and updates, and each percentile rank lands on the same request class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace perfbench {

/// One request of a client's sequence: an index into the workload's
/// algorithm mix and the source vertex it runs from.
struct Request {
  uint32_t algorithm = 0;
  sage::vertex_id source = 0;

  bool operator==(const Request&) const = default;
};

/// Seed of an independent stream derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Up to `size` distinct vertices of the largest connected component, in
/// a seeded order. Sources from it never end a traversal after one step,
/// so a fresh run is never mistaken for a cache hit by its latency.
std::vector<sage::vertex_id> SourcePool(const sage::Graph& g, size_t size,
                                        uint64_t seed);

/// Per-client request sequences of `passes` whole passes over a mix of
/// `mix_size` algorithms in fixed order. Sources are drawn from `pool`:
/// uniformly when `zipf_s` is 0, else with P(rank r) ~ 1 / (r+1)^zipf_s.
std::vector<std::vector<Request>> MakeRequestPlan(
    size_t mix_size, std::span<const sage::vertex_id> pool, double zipf_s,
    int clients, size_t passes, uint64_t seed);

/// `batches` batches of `batch_size` edge updates: alternately an insert
/// between two random vertices and the removal of a random edge of `g`.
std::vector<std::vector<sage::EdgeUpdate>> MakeUpdateBatches(
    const sage::Graph& g, size_t batches, size_t batch_size, uint64_t seed);

}  // namespace perfbench
