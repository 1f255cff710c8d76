// The benchmark's workloads and the run configuration derived from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed-loop workload. Every number here is fixed; the seed only
/// chooses the graph, the sources and the update batches.
struct Workload {
  std::string name;
  /// RMAT graph: 2^log_n vertices, `edge_samples` directed samples
  /// (symmetrized).
  int log_n = 0;
  uint64_t edge_samples = 0;
  /// Algorithms of one pass, in submission order.
  std::vector<std::string> mix;
  /// Zipf exponent of the source distribution; 0 = uniform.
  double zipf_s = 0.0;
  /// Serving shape: nproc clients and sessions on a width-1 scheduler with
  /// the result cache on. Otherwise one client and one session on an
  /// nproc-wide scheduler with the cache off.
  bool serving = false;
  /// Result-cache budget when serving.
  uint64_t cache_bytes = 0;
  /// Client 0 applies an update batch after every `update_every` of its
  /// own requests and compacts after every `compact_every` batches.
  bool updates = false;
  size_t update_every = 0;
  size_t update_batch = 0;
  size_t compact_every = 0;
  /// Highest latency percentile reported; the run is sized so that at
  /// least kMinBeyond samples lie beyond it.
  double tail_q = 0.9;
  /// Nominal seconds of one client pass: --seconds / pass_seconds passes,
  /// at least enough for tail_q. Fixed work, so a faster engine finishes
  /// sooner instead of doing more.
  double pass_seconds = 1.0;
  /// Every sample_every-th request of a client is digested and compared
  /// with every other digested run of its key.
  size_t sample_every = 1;
};

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Names of all workloads, for usage text.
std::string WorkloadNames();

/// Thread shape of a run on a host with `nproc` usable CPUs.
struct RunShape {
  int nproc = 1;
  int clients = 1;
  int sessions = 1;
  int width = 1;
};

RunShape ShapeFor(const Workload& w, int nproc);

/// "" when the shape keeps sessions x width <= nproc and clients <= nproc,
/// else why it oversubscribes the host.
std::string ValidateShape(const RunShape& shape);

/// Passes each client makes: --seconds worth of nominal passes, but never
/// fewer than the tail percentile needs.
size_t PassesPerClient(const Workload& w, const RunShape& shape,
                       double seconds);

}  // namespace perfbench
