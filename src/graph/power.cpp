#include "graph/power.hpp"

#include <vector>

#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

Graph graph_power(const Graph& g, std::int32_t t) {
  DSND_REQUIRE(t >= 1, "power must be at least 1");
  std::vector<Edge> edges;
  BfsArena arena(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Depth-limited BFS from v; only emit edges to higher ids so each
    // pair appears once.
    for (const VertexId u : bfs(g, {&v, 1}, arena, AdmitAll{}, t)) {
      if (u > v) edges.push_back({v, u});
    }
    arena.reset();
  }
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

}  // namespace dsnd
