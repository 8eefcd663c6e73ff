#include "graph/traversal.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace dsnd {

namespace {

/// Distances from range-checked, admitted sources over a fresh arena.
template <typename Admit>
std::vector<std::int32_t> distances_from(const Graph& g,
                                         std::span<const VertexId> sources,
                                         const Admit& admit) {
  for (const VertexId s : sources) {
    DSND_REQUIRE(s >= 0 && s < g.num_vertices(), "source out of range");
    DSND_REQUIRE(admit(s), "source excluded by filter");
  }
  BfsArena arena(g.num_vertices());
  bfs(g, sources, arena, admit);
  const auto dist = arena.distances();
  return {dist.begin(), dist.end()};
}

/// Eccentricity of v over an arena that the call leaves reset.
std::int32_t eccentricity_on(const Graph& g, VertexId v, BfsArena& arena) {
  const std::int32_t ecc = arena.distance(bfs(g, {&v, 1}, arena).back());
  arena.reset();
  return ecc;
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const Graph& g, VertexId source) {
  return distances_from(g, {&source, 1}, AdmitAll{});
}

std::vector<std::int32_t> bfs_distances_filtered(
    const Graph& g, VertexId source, const std::vector<char>& alive) {
  DSND_REQUIRE(alive.size() == static_cast<std::size_t>(g.num_vertices()),
               "alive mask size mismatch");
  return distances_from(g, {&source, 1}, [&alive](VertexId v) {
    return alive[static_cast<std::size_t>(v)] != 0;
  });
}

std::vector<std::int32_t> multi_source_bfs(const Graph& g,
                                           std::span<const VertexId> sources) {
  return distances_from(g, sources, AdmitAll{});
}

std::vector<VertexId> shortest_path(const Graph& g, VertexId u, VertexId v) {
  DSND_REQUIRE(u >= 0 && u < g.num_vertices(), "u out of range");
  DSND_REQUIRE(v >= 0 && v < g.num_vertices(), "v out of range");
  // BFS from v so the parent chase from u walks forward.
  const auto dist = bfs_distances(g, v);
  if (dist[static_cast<std::size_t>(u)] == kUnreachable) return {};
  std::vector<VertexId> path;
  path.push_back(u);
  VertexId cur = u;
  while (cur != v) {
    for (VertexId w : g.neighbors(cur)) {
      if (dist[static_cast<std::size_t>(w)] ==
          dist[static_cast<std::size_t>(cur)] - 1) {
        cur = w;
        path.push_back(cur);
        break;
      }
    }
  }
  return path;
}

std::vector<std::vector<VertexId>> Components::groups() const {
  std::vector<std::vector<VertexId>> result(
      static_cast<std::size_t>(count));
  for (std::size_t v = 0; v < component_of.size(); ++v) {
    result[static_cast<std::size_t>(component_of[v])].push_back(
        static_cast<VertexId>(v));
  }
  return result;
}

Components connected_components(const Graph& g) {
  Components components;
  components.component_of.assign(
      static_cast<std::size_t>(g.num_vertices()), -1);
  BfsArena arena(g.num_vertices());
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    const auto component = bfs(g, {&root, 1}, arena);
    if (component.empty()) continue;  // root lies in an earlier component
    for (const VertexId v : component) {
      components.component_of[static_cast<std::size_t>(v)] =
          components.count;
    }
    ++components.count;
  }
  return components;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

std::int32_t eccentricity(const Graph& g, VertexId v) {
  DSND_REQUIRE(v >= 0 && v < g.num_vertices(), "source out of range");
  BfsArena arena(g.num_vertices());
  return eccentricity_on(g, v, arena);
}

std::int32_t exact_diameter(const Graph& g) {
  BfsArena arena(g.num_vertices());
  std::int32_t diameter = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    diameter = std::max(diameter, eccentricity_on(g, v, arena));
  }
  return diameter;
}

std::int32_t two_sweep_diameter_lower_bound(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  const auto first = bfs_distances(g, 0);
  VertexId far = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (first[static_cast<std::size_t>(v)] >
        first[static_cast<std::size_t>(far)]) {
      far = v;
    }
  }
  return eccentricity(g, far);
}

std::vector<std::vector<std::int32_t>> all_pairs_distances(const Graph& g) {
  std::vector<std::vector<std::int32_t>> result;
  result.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.push_back(bfs_distances(g, v));
  }
  return result;
}

}  // namespace dsnd
