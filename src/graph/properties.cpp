#include "graph/properties.hpp"

#include <algorithm>
#include <sstream>

#include "graph/traversal.hpp"

namespace dsnd {

VertexId max_degree(const Graph& g) {
  VertexId result = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result = std::max(result, g.degree(v));
  }
  return result;
}

double average_degree(const Graph& g) {
  if (g.num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_vertices());
}

bool is_bipartite(const Graph& g) {
  // BFS every component. Edges join equal or adjacent BFS layers, and an
  // edge inside one layer closes an odd cycle through the two tree paths.
  BfsArena arena(g.num_vertices());
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    bfs(g, {&root, 1}, arena);
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId w : g.neighbors(u)) {
      if (arena.distance(u) == arena.distance(w)) return false;
    }
  }
  return true;
}

std::int64_t triangle_count(const Graph& g) {
  std::int64_t count = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    // Count common neighbors w > v so each triangle is counted once via its
    // lexicographically smallest edge.
    for (VertexId w : g.neighbors(u)) {
      if (w > v && g.has_edge(v, w)) ++count;
    }
  });
  return count;
}

std::string describe(const Graph& g) {
  std::ostringstream out;
  out << "n=" << g.num_vertices() << " m=" << g.num_edges()
      << " max_deg=" << max_degree(g) << " avg_deg=" << average_degree(g)
      << " components=" << connected_components(g).count;
  return out.str();
}

}  // namespace dsnd
