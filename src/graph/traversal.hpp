// Breadth-first search: one kernel, bfs() over a BfsArena, and the
// helpers built on it. Every check of the paper's guarantee is a BFS
// confined to a vertex set or capped at a depth (Claim 3's connected
// clusters of radius k - 1 around their centers, W-balls inside cover
// clusters, the t-hop pairs of G^t), and every BFS in the library runs
// here. An arena holds a distance per vertex and the visited vertices in
// visit order, which is also the queue. Searches append to it until
// reset(), which clears only what they visited, so a search costs the
// cluster or ball it explores, not n. The allocating helpers below build
// a fresh arena per call, for tests and small-graph tools.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

/// Distance marker for unreachable vertices.
inline constexpr std::int32_t kUnreachable = -1;

/// bfs()'s default depth cap: no BFS depth in a graph with 32-bit vertex
/// ids reaches it.
inline constexpr std::int32_t kNoDepthLimit =
    std::numeric_limits<std::int32_t>::max();

/// Scratch for bfs(), sized once per graph and reused across searches.
class BfsArena {
 public:
  BfsArena() = default;
  explicit BfsArena(VertexId n)
      : dist_(static_cast<std::size_t>(n), kUnreachable),
        order_(static_cast<std::size_t>(n)) {}

  VertexId num_vertices() const {
    return static_cast<VertexId>(dist_.size());
  }

  /// Depth at which v was visited; kUnreachable if not visited since the
  /// last reset().
  std::int32_t distance(VertexId v) const {
    return dist_[static_cast<std::size_t>(v)];
  }

  /// Every vertex's distance, indexed by vertex id.
  std::span<const std::int32_t> distances() const { return dist_; }

  /// The vertices visited since the last reset(), in visit order.
  std::span<const VertexId> order() const { return {order_.data(), size_}; }

  /// Visits v at `depth`; a no-op if v is already visited.
  void visit(VertexId v, std::int32_t depth) {
    std::int32_t& d = dist_[static_cast<std::size_t>(v)];
    if (d != kUnreachable) return;
    d = depth;
    order_[size_++] = v;
  }

  /// Unvisits exactly the vertices in order(): O(visited), not O(n).
  void reset() {
    for (std::size_t i = 0; i < size_; ++i) {
      dist_[static_cast<std::size_t>(order_[i])] = kUnreachable;
    }
    size_ = 0;
  }

 private:
  std::vector<std::int32_t> dist_;
  std::vector<VertexId> order_;
  std::size_t size_ = 0;
};

/// bfs()'s defaults: admit every vertex, ignore tree edges.
struct AdmitAll {
  constexpr bool operator()(VertexId) const { return true; }
};
struct IgnoreTreeEdge {
  constexpr void operator()(VertexId, VertexId) const {}
};

/// BFS from `sources` (all at depth 0) through the vertices w with
/// admit(w), expanding no vertex at depth `max_depth`. Appends to the
/// arena: a source or neighbor visited by an earlier search since the
/// last reset() is skipped. FIFO over g's sorted rows, so the visit order
/// is deterministic and nondecreasing in depth. on_tree_edge(u, w) is
/// called once per discovered w, with u the vertex that discovered it.
/// Sources are taken as given: the caller vouches for their range and
/// admission. Returns the vertices this call visited, in visit order.
template <typename Admit = AdmitAll, typename OnTreeEdge = IgnoreTreeEdge>
std::span<const VertexId> bfs(const Graph& g,
                              std::span<const VertexId> sources,
                              BfsArena& arena, const Admit& admit = {},
                              std::int32_t max_depth = kNoDepthLimit,
                              const OnTreeEdge& on_tree_edge = {}) {
  const std::size_t begin = arena.order().size();
  for (const VertexId s : sources) arena.visit(s, 0);
  for (std::size_t head = begin; head < arena.order().size(); ++head) {
    const VertexId u = arena.order()[head];
    const std::int32_t depth = arena.distance(u);
    if (depth >= max_depth) break;
    for (const VertexId w : g.neighbors(u)) {
      if (arena.distance(w) != kUnreachable || !admit(w)) continue;
      arena.visit(w, depth + 1);
      on_tree_edge(u, w);
    }
  }
  return arena.order().subspan(begin);
}

/// Single-source BFS distances; kUnreachable where not connected.
std::vector<std::int32_t> bfs_distances(const Graph& g, VertexId source);

/// BFS distances from `source` in the subgraph induced by the vertices for
/// which `alive[v]` is true. `alive[source]` must hold.
std::vector<std::int32_t> bfs_distances_filtered(
    const Graph& g, VertexId source, const std::vector<char>& alive);

/// Multi-source BFS: distance to the nearest source (all sources at 0).
std::vector<std::int32_t> multi_source_bfs(const Graph& g,
                                           std::span<const VertexId> sources);

/// One shortest path from u to v (inclusive); empty if disconnected.
std::vector<VertexId> shortest_path(const Graph& g, VertexId u, VertexId v);

struct Components {
  std::vector<std::int32_t> component_of;  // size n
  std::int32_t count = 0;

  /// Member lists, indexed by component id.
  std::vector<std::vector<VertexId>> groups() const;
};

/// Connected components, labelled in order of their smallest vertex.
Components connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Largest BFS distance from v to any reachable vertex.
std::int32_t eccentricity(const Graph& g, VertexId v);

/// Exact diameter of the largest component via all-source BFS. Intended
/// for validation on small/medium graphs (O(n*m)).
std::int32_t exact_diameter(const Graph& g);

/// Lower bound on the diameter from a double BFS sweep (exact on trees).
std::int32_t two_sweep_diameter_lower_bound(const Graph& g);

/// All-pairs distances via repeated BFS; O(n^2) memory — tests only.
std::vector<std::vector<std::int32_t>> all_pairs_distances(const Graph& g);

}  // namespace dsnd
