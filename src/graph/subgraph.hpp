// Induced subgraphs with an explicit index mapping back to the parent
// graph. Used by the cover validator and the HST construction; the
// batch validators and the spanner trees run restricted BFS on the
// parent graph instead, and the tests check them against copies made
// here.
//
// The sub-vertices are renumbered to a compact 0..k-1 range so the
// resulting Graph works with every algorithm in the library unchanged;
// to_parent restores original ids when results are written back.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

struct InducedSubgraph {
  Graph graph;                       // vertices renumbered 0..k-1
  std::vector<VertexId> to_parent;   // sub id -> parent id (sorted)

  VertexId parent_of(VertexId sub) const { return to_parent.at(
      static_cast<std::size_t>(sub)); }
};

/// Subgraph induced by `vertices` (duplicates rejected).
InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const VertexId> vertices);

}  // namespace dsnd
