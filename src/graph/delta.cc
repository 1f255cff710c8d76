#include "graph/delta.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "parallel/parallel.h"
#include "parallel/primitives.h"

namespace sage {

// --- graph.h overlay hooks (declared in internal_overlay) -----------------

namespace internal_overlay {

OverlayList Find(const DeltaOverlay& overlay, vertex_id v) {
  const DeltaOverlay::VertexList* list = overlay.Find(v);
  SAGE_CHECK_MSG(list != nullptr,
                 "overlay list missing for touched vertex %u",
                 static_cast<unsigned>(v));
  return OverlayList{
      list->neighbors.data(),
      list->weights.empty() ? nullptr : list->weights.data(),
      static_cast<vertex_id>(list->neighbors.size())};
}

const uint64_t* TouchedBits(const DeltaOverlay& overlay) {
  return overlay.touched_bits().data();
}

uint64_t OverlayNumEdges(const DeltaOverlay& overlay) {
  return overlay.num_edges();
}

bool OverlayWeighted(const DeltaOverlay& overlay) { return overlay.weighted(); }

uint64_t OverlayDeltaEdges(const DeltaOverlay& overlay) {
  return overlay.delta_edges();
}

}  // namespace internal_overlay

// --- DeltaLog -------------------------------------------------------------

DeltaLog::DeltaLog(int shards)
    : num_shards_(std::max(1, shards)),
      shards_(std::make_unique<Shard[]>(static_cast<size_t>(num_shards_))) {}

uint64_t DeltaLog::Append(std::span<const EdgeUpdate> updates) {
  if (updates.empty()) return 0;
  // One fetch_add claims a contiguous sequence block for the whole batch,
  // so a batch's updates stay ordered relative to each other even when
  // they scatter across shards.
  const uint64_t first = next_seq_.fetch_add(updates.size());
  // Group by shard before locking: each shard's mutex is taken once per
  // batch, not once per update.
  std::vector<std::vector<std::pair<uint64_t, EdgeUpdate>>> buckets(
      static_cast<size_t>(num_shards_));
  for (size_t i = 0; i < updates.size(); ++i) {
    size_t shard = updates[i].u % static_cast<vertex_id>(num_shards_);
    buckets[shard].emplace_back(first + i, updates[i]);
  }
  for (int s = 0; s < num_shards_; ++s) {
    if (buckets[static_cast<size_t>(s)].empty()) continue;
    MutexLock lock(shards_[s].mu);
    auto& bucket = buckets[static_cast<size_t>(s)];
    shards_[s].entries.insert(shards_[s].entries.end(), bucket.begin(),
                              bucket.end());
  }
  pending_.fetch_add(updates.size(), std::memory_order_relaxed);
  return first + updates.size() - 1;
}

std::vector<EdgeUpdate> DeltaLog::Drain(uint64_t* last_seq) {
  std::vector<std::pair<uint64_t, EdgeUpdate>> all;
  for (int s = 0; s < num_shards_; ++s) {
    MutexLock lock(shards_[s].mu);
    all.insert(all.end(), shards_[s].entries.begin(), shards_[s].entries.end());
    shards_[s].entries.clear();
  }
  pending_.fetch_sub(all.size(), std::memory_order_relaxed);
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<EdgeUpdate> out;
  out.reserve(all.size());
  for (auto& [seq, update] : all) {
    if (last_seq != nullptr && seq > *last_seq) *last_seq = seq;
    out.push_back(update);
  }
  return out;
}

// --- ApplyUpdateBatch -----------------------------------------------------

namespace {

/// One directed mutation slot, ordered by submission within its source.
struct DirectedSlot {
  vertex_id src;
  vertex_id dst;
  weight_t w;
  bool remove;
  uint64_t ord;
};

/// Seeds `list` from the base adjacency of `src`, canonicalized to sorted
/// order (builder output already is; arbitrary file inputs may not be).
void SeedFromBase(const Graph& base, vertex_id src,
                  DeltaOverlay::VertexList& list) {
  std::span<const vertex_id> nbrs = base.NeighborsUncharged(src);
  list.neighbors.assign(nbrs.begin(), nbrs.end());
  if (base.weighted()) {
    std::span<const edge_offset> offsets = base.raw_offsets();
    std::span<const weight_t> weights = base.raw_weights();
    list.weights.assign(weights.begin() + offsets[src],
                        weights.begin() + offsets[src + 1]);
  }
  if (!std::is_sorted(list.neighbors.begin(), list.neighbors.end())) {
    if (list.weights.empty()) {
      std::sort(list.neighbors.begin(), list.neighbors.end());
    } else {
      std::vector<std::pair<vertex_id, weight_t>> pairs(list.neighbors.size());
      for (size_t i = 0; i < pairs.size(); ++i)
        pairs[i] = {list.neighbors[i], list.weights[i]};
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (size_t i = 0; i < pairs.size(); ++i) {
        list.neighbors[i] = pairs[i].first;
        list.weights[i] = pairs[i].second;
      }
    }
  }
}

/// Applies one slot to a sorted list. Returns the change in directed edge
/// count (negative for removals) and bumps `structural` for every slot
/// inserted or erased.
int64_t ApplySlot(const DirectedSlot& slot, bool weighted,
                  DeltaOverlay::VertexList& list, uint64_t& structural) {
  auto pos = std::lower_bound(list.neighbors.begin(), list.neighbors.end(),
                              slot.dst);
  size_t idx = static_cast<size_t>(pos - list.neighbors.begin());
  if (slot.remove) {
    size_t erased = 0;
    while (idx + erased < list.neighbors.size() &&
           list.neighbors[idx + erased] == slot.dst) {
      ++erased;  // duplicate parallel edges all go
    }
    if (erased == 0) return 0;
    list.neighbors.erase(pos, pos + static_cast<int64_t>(erased));
    if (weighted) {
      list.weights.erase(list.weights.begin() + static_cast<int64_t>(idx),
                         list.weights.begin() +
                             static_cast<int64_t>(idx + erased));
    }
    structural += erased;
    return -static_cast<int64_t>(erased);
  }
  if (pos != list.neighbors.end() && *pos == slot.dst) {
    // Insert of an existing edge: weight upsert, structure unchanged.
    if (weighted) list.weights[idx] = slot.w;
    return 0;
  }
  list.neighbors.insert(pos, slot.dst);
  if (weighted) {
    list.weights.insert(list.weights.begin() + static_cast<int64_t>(idx),
                        slot.w);
  }
  structural += 1;
  return 1;
}

}  // namespace

Result<std::shared_ptr<const DeltaOverlay>> ApplyUpdateBatch(
    const Graph& base, const std::shared_ptr<const DeltaOverlay>& prev,
    std::span<const EdgeUpdate> updates) {
  SAGE_CHECK_MSG(!base.has_overlay(),
                 "ApplyUpdateBatch: base must be overlay-free (flatten or "
                 "compact first)");
  const vertex_id n = base.num_vertices();
  for (const EdgeUpdate& e : updates) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument(
          "edge update (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
          ") references a vertex >= n=" + std::to_string(n) +
          " (updates cannot grow the vertex set)");
    }
  }
  const bool weighted = base.weighted();
  if (prev != nullptr) {
    SAGE_CHECK(prev->num_vertices() == n && prev->weighted() == weighted);
  }

  // Expand to directed slots in submission order: symmetric graphs apply
  // both directions so the view stays symmetric.
  std::vector<DirectedSlot> slots;
  slots.reserve(updates.size() * (base.symmetric() ? 2 : 1));
  uint64_t ord = 0;
  for (const EdgeUpdate& e : updates) {
    slots.push_back({e.u, e.v, e.w, e.remove, ord++});
    if (base.symmetric() && e.u != e.v) {
      slots.push_back({e.v, e.u, e.w, e.remove, ord++});
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const DirectedSlot& a, const DirectedSlot& b) {
              return a.src != b.src ? a.src < b.src : a.ord < b.ord;
            });

  std::shared_ptr<DeltaOverlay> next(new DeltaOverlay());
  next->n_ = n;
  next->weighted_ = weighted;
  if (prev != nullptr) {
    // Copy-on-write from the previous overlay: epochs still serving `prev`
    // keep their lists untouched.
    next->touched_bits_ = prev->touched_bits_;
    next->lists_ = prev->lists_;
    next->num_edges_ = prev->num_edges_;
    next->delta_edges_ = prev->delta_edges_;
  } else {
    next->touched_bits_.assign((static_cast<size_t>(n) >> 6) + 1, 0);
    next->num_edges_ = base.num_edges();
    next->delta_edges_ = 0;
  }

  // Group slots per source vertex; create (or COW-find) each list
  // sequentially, then merge groups in parallel - each group owns its
  // VertexList and the map is not mutated during the parallel phase.
  struct Group {
    size_t begin, end;
    DeltaOverlay::VertexList* list;
    bool fresh;  // seeded from base (untouched before this batch)
    int64_t edge_delta = 0;
    uint64_t structural = 0;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < slots.size();) {
    size_t j = i;
    while (j < slots.size() && slots[j].src == slots[i].src) ++j;
    vertex_id src = slots[i].src;
    bool fresh = !next->touched(src);
    if (fresh) {
      next->touched_bits_[src >> 6] |= 1ull << (src & 63);
    }
    groups.push_back(Group{i, j, &next->lists_[src], fresh});
    i = j;
  }
  parallel_for(0, groups.size(), [&](size_t gi) {
    Group& group = groups[gi];
    if (group.fresh) SeedFromBase(base, slots[group.begin].src, *group.list);
    for (size_t k = group.begin; k < group.end; ++k) {
      group.edge_delta +=
          ApplySlot(slots[k], weighted, *group.list, group.structural);
    }
  });
  for (const Group& group : groups) {
    next->num_edges_ =
        static_cast<uint64_t>(static_cast<int64_t>(next->num_edges_) +
                              group.edge_delta);
    next->delta_edges_ += group.structural;
  }
  return std::shared_ptr<const DeltaOverlay>(std::move(next));
}

std::shared_ptr<const DeltaOverlay> WeighOverlay(
    const DeltaOverlay& overlay,
    const std::function<weight_t(vertex_id, vertex_id)>& weight) {
  auto weighted = std::make_shared<DeltaOverlay>(overlay);
  weighted->weighted_ = true;
  for (auto& [u, list] : weighted->lists_) {
    list.weights.resize(list.neighbors.size());
    for (size_t i = 0; i < list.neighbors.size(); ++i) {
      list.weights[i] = weight(u, list.neighbors[i]);
    }
  }
  return weighted;
}

Graph MakeOverlayGraph(const Graph& base,
                       std::shared_ptr<const DeltaOverlay> overlay) {
  SAGE_CHECK(base.storage() != nullptr);
  return Graph(
      std::make_shared<OverlayGraphStorage>(base.storage(), std::move(overlay)),
      base.symmetric());
}

Graph FlattenOverlay(const Graph& g) {
  if (!g.has_overlay()) return g;
  const vertex_id n = g.num_vertices();
  std::vector<edge_offset> offsets(static_cast<size_t>(n) + 1);
  parallel_for(0, n, [&](size_t v) {
    offsets[v] = g.degree_uncharged(static_cast<vertex_id>(v));
  });
  offsets[n] = 0;
  edge_offset total = scan_add_inplace(offsets);
  SAGE_CHECK(total == g.num_edges());
  std::vector<vertex_id> neighbors(total);
  std::vector<weight_t> weights(g.weighted() ? total : 0);
  parallel_for(0, n, [&](size_t v) {
    vertex_id u = static_cast<vertex_id>(v);
    std::span<const vertex_id> nbrs = g.NeighborsUncharged(u);
    std::copy(nbrs.begin(), nbrs.end(), neighbors.begin() + offsets[v]);
    if (!weights.empty()) {
      for (size_t i = 0; i < nbrs.size(); ++i) {
        weights[offsets[v] + i] = g.weight_at(u, static_cast<vertex_id>(i));
      }
    }
  });
  return Graph(std::move(offsets), std::move(neighbors), std::move(weights),
               g.symmetric());
}

Result<std::vector<EdgeUpdate>> ReadEdgeUpdates(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open update file: " + path);
  std::vector<EdgeUpdate> updates;
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // blank line
    if (first[0] == '#' || first[0] == '%') continue;
    bool remove = false;
    unsigned long long u = 0, v = 0, w = 1;
    auto parse_u64 = [&](const std::string& tok, unsigned long long* out) {
      size_t used = 0;
      try {
        *out = std::stoull(tok, &used);
      } catch (...) {
        return false;
      }
      return used == tok.size();
    };
    if (first == "+" || first == "-") {
      remove = first == "-";
      if (!(tokens >> first)) {
        return Status::Corruption("update file " + path + " line " +
                                  std::to_string(lineno) +
                                  ": missing endpoints after '" +
                                  (remove ? "-" : "+") + "'");
      }
    }
    std::string second;
    if (!parse_u64(first, &u) || !(tokens >> second) ||
        !parse_u64(second, &v)) {
      return Status::Corruption("update file " + path + " line " +
                                std::to_string(lineno) +
                                ": expected 'u v [w]', got: " + line);
    }
    std::string third;
    if (tokens >> third) {
      if (remove || !parse_u64(third, &w)) {
        return Status::Corruption("update file " + path + " line " +
                                  std::to_string(lineno) +
                                  ": unexpected trailing token: " + third);
      }
    }
    if (u > kNoVertex || v > kNoVertex) {
      return Status::Corruption("update file " + path + " line " +
                                std::to_string(lineno) +
                                ": vertex id out of range");
    }
    EdgeUpdate e;
    e.u = static_cast<vertex_id>(u);
    e.v = static_cast<vertex_id>(v);
    e.w = static_cast<weight_t>(w);
    e.remove = remove;
    updates.push_back(e);
  }
  return updates;
}

}  // namespace sage
