// All-pairs distances by Floyd–Warshall over the edge list: an oracle for
// the BFS-based code that shares none of it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/traversal.hpp"

namespace dsnd {

/// d[u][v] = hop distance in g, kUnreachable where disconnected.
inline std::vector<std::vector<std::int32_t>> floyd_warshall(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::int32_t infinity = g.num_vertices() + 1;
  std::vector<std::vector<std::int32_t>> d(
      n, std::vector<std::int32_t>(n, infinity));
  for (std::size_t v = 0; v < n; ++v) d[v][v] = 0;
  for (const Edge& e : g.edges()) {
    d[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] = 1;
    d[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
      }
    }
  }
  for (auto& row : d) {
    for (std::int32_t& x : row) {
      if (x == infinity) x = kUnreachable;
    }
  }
  return d;
}

}  // namespace dsnd
