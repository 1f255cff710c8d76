#include "config.h"

#include <algorithm>
#include <cmath>

#include "stats.h"

namespace perfbench {

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload analytics;
  analytics.name = "analytics";
  analytics.log_n = 18;
  analytics.edge_samples = 8'000'000;
  analytics.mix = {"bfs", "bellman-ford", "connectivity", "kcore", "pagerank"};
  analytics.tail_q = 0.9;
  analytics.pass_seconds = 0.8;
  all.push_back(analytics);

  Workload serve;
  serve.name = "serve";
  serve.log_n = 16;
  serve.edge_samples = 1'000'000;
  serve.mix = {"bfs", "wbfs", "widest-path"};
  serve.zipf_s = 1.4;
  serve.serving = true;
  serve.cache_bytes = 32ULL << 20;
  serve.tail_q = 0.99;
  serve.pass_seconds = 0.055;
  serve.sample_every = 8;
  all.push_back(serve);

  Workload update_mix = serve;
  update_mix.name = "update-mix";
  update_mix.updates = true;
  update_mix.update_every = 12;
  update_mix.update_batch = 256;
  update_mix.compact_every = 4;
  update_mix.pass_seconds = 0.135;
  all.push_back(update_mix);

  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : Workloads()) {
    names += (names.empty() ? "" : "|") + w.name;
  }
  return names;
}

RunShape ShapeFor(const Workload& w, int nproc) {
  RunShape shape;
  shape.nproc = std::max(1, nproc);
  if (w.serving) {
    // Width 1: ParDo runs inline, so nproc sessions use nproc cores.
    shape.clients = shape.sessions = shape.nproc;
    shape.width = 1;
  } else {
    shape.clients = shape.sessions = 1;
    shape.width = shape.nproc;
  }
  return shape;
}

std::string ValidateShape(const RunShape& shape) {
  if (shape.sessions < 1 || shape.width < 1 || shape.clients < 1) {
    return "sessions, width and clients must be at least 1";
  }
  if (shape.sessions * shape.width > shape.nproc) {
    return std::to_string(shape.sessions) + " sessions x width " +
           std::to_string(shape.width) + " oversubscribes nproc " +
           std::to_string(shape.nproc);
  }
  if (shape.clients > shape.nproc) {
    return std::to_string(shape.clients) + " clients exceed nproc " +
           std::to_string(shape.nproc);
  }
  return "";
}

size_t PassesPerClient(const Workload& w, const RunShape& shape,
                       double seconds) {
  const auto nominal =
      static_cast<size_t>(std::llround(std::max(0.0, seconds) / w.pass_seconds));
  // Smallest sample count with kMinBeyond samples beyond tail_q.
  const auto needed = static_cast<size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - w.tail_q) - 1e-9));
  const size_t per_pass = static_cast<size_t>(shape.clients) * w.mix.size();
  const size_t floor = (needed + per_pass - 1) / per_pass;
  return std::max({nominal, floor, size_t{1}});
}

}  // namespace perfbench
