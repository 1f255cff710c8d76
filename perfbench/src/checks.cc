#include "checks.h"

#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "algorithms/reference/sequential.h"
#include "graph/builder.h"

namespace perfbench {

namespace {

using sage::vertex_id;

constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
/// Level of a vertex whose parent chain is broken (cycle or bad id).
constexpr uint32_t kBroken = kUnreached - 1;

uint64_t Fnv(const void* data, size_t bytes, uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t FnvVec(const std::vector<T>& v) {
  return Fnv(v.data(), v.size() * sizeof(T));
}

/// Hop levels implied by a BFS parent array (root: parent[v] == v).
/// A vertex whose parent chain reaches no root gets kBroken.
std::vector<uint32_t> LevelsFromParents(const std::vector<vertex_id>& parent) {
  const size_t n = parent.size();
  constexpr uint32_t kUnknown = kBroken - 1;
  std::vector<uint32_t> level(n, kUnknown);
  std::vector<vertex_id> path;
  for (vertex_id v = 0; v < n; ++v) {
    path.clear();
    vertex_id x = v;
    while (level[x] == kUnknown) {
      const vertex_id p = parent[x];
      if (p == sage::kNoVertex) {
        level[x] = kUnreached;
      } else if (p == x) {
        level[x] = 0;
      } else if (p >= n || path.size() > n) {  // bad id or a cycle
        level[x] = kBroken;
      } else {
        path.push_back(x);
        x = p;
      }
    }
    uint32_t l = level[x];
    for (size_t i = path.size(); i-- > 0;) {
      l = (l == kUnreached || l == kBroken) ? kBroken : l + 1;
      level[path[i]] = l;
    }
  }
  return level;
}

/// Labels renumbered by first occurrence: equal partitions, equal arrays.
std::vector<vertex_id> CanonicalLabels(const std::vector<vertex_id>& label) {
  std::unordered_map<vertex_id, vertex_id> rename;
  std::vector<vertex_id> out(label.size());
  for (size_t v = 0; v < label.size(); ++v) {
    auto [it, fresh] =
        rename.emplace(label[v], static_cast<vertex_id>(rename.size()));
    out[v] = it->second;
  }
  return out;
}

template <typename T>
std::string CompareVectors(const char* what, const std::vector<T>& got,
                           const std::vector<T>& want) {
  if (got.size() != want.size()) return std::string(what) + ": length differs";
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want[v]) {
      return std::string(what) + " differs at vertex " + std::to_string(v);
    }
  }
  return "";
}

}  // namespace

bool ShapeOk(const std::string& algorithm, const sage::AlgoOutput& output,
             vertex_id n) {
  if (algorithm == "bfs" || algorithm == "connectivity") {
    const auto* v = std::get_if<std::vector<vertex_id>>(&output);
    return v != nullptr && v->size() == n;
  }
  if (algorithm == "bellman-ford" || algorithm == "wbfs" ||
      algorithm == "widest-path") {
    const auto* v = std::get_if<std::vector<uint64_t>>(&output);
    return v != nullptr && v->size() == n;
  }
  if (algorithm == "kcore") {
    const auto* r = std::get_if<sage::KCoreResult>(&output);
    return r != nullptr && r->coreness.size() == n;
  }
  if (algorithm == "pagerank") {
    const auto* r = std::get_if<sage::PageRankResult>(&output);
    return r != nullptr && r->rank.size() == n;
  }
  return false;
}

uint64_t AnswerDigest(const std::string& algorithm,
                      const sage::AlgoOutput& output) {
  if (const auto* v = std::get_if<std::vector<vertex_id>>(&output)) {
    if (algorithm == "bfs") return FnvVec(LevelsFromParents(*v));
    return FnvVec(CanonicalLabels(*v));
  }
  if (const auto* v = std::get_if<std::vector<uint64_t>>(&output)) {
    return FnvVec(*v);
  }
  if (const auto* r = std::get_if<sage::KCoreResult>(&output)) {
    return FnvVec(r->coreness) ^ r->max_core;
  }
  if (const auto* r = std::get_if<sage::PageRankResult>(&output)) {
    return FnvVec(r->rank) ^ r->iterations;
  }
  return 0;
}

std::string CheckAgainstReference(const std::string& algorithm,
                                  const sage::AlgoOutput& output,
                                  const sage::Graph& g,
                                  const sage::RunParams& params) {
  if (!ShapeOk(algorithm, output, g.num_vertices())) {
    return algorithm + ": output has the wrong type or length";
  }
  if (algorithm == "bfs") {
    const auto& parent = std::get<std::vector<vertex_id>>(output);
    const std::vector<uint32_t> level = LevelsFromParents(parent);
    std::string diff =
        CompareVectors("bfs level", level, sage::ref::BfsLevels(g, params.source));
    if (!diff.empty()) return diff;
    for (vertex_id v = 0; v < parent.size(); ++v) {
      if (parent[v] == sage::kNoVertex || parent[v] == v) continue;
      bool adjacent = false;
      for (vertex_id u : g.NeighborsUncharged(v)) adjacent |= u == parent[v];
      if (!adjacent) {
        return "bfs parent of vertex " + std::to_string(v) + " is no neighbor";
      }
    }
    return "";
  }
  if (algorithm == "connectivity") {
    return CompareVectors(
        "component",
        CanonicalLabels(std::get<std::vector<vertex_id>>(output)),
        CanonicalLabels(sage::ref::Components(g)));
  }
  if (algorithm == "kcore") {
    return CompareVectors("coreness",
                          std::get<sage::KCoreResult>(output).coreness,
                          sage::ref::Coreness(g));
  }
  if (algorithm == "pagerank") {
    const auto& got = std::get<sage::PageRankResult>(output);
    const std::vector<double> want =
        sage::ref::PageRank(g, static_cast<int>(got.iterations));
    for (size_t v = 0; v < want.size(); ++v) {
      if (!(std::fabs(got.rank[v] - want[v]) <= 1e-10)) {
        return "pagerank differs at vertex " + std::to_string(v);
      }
    }
    return "";
  }
  const sage::Graph weighted =
      g.weighted() ? g : sage::AddRandomWeights(g, params.weight_seed);
  const auto& got = std::get<std::vector<uint64_t>>(output);
  if (algorithm == "widest-path") {
    return CompareVectors("widest-path value", got,
                          sage::ref::WidestPath(weighted, params.source));
  }
  return CompareVectors("distance", got,
                        sage::ref::Dijkstra(weighted, params.source));
}

}  // namespace perfbench
