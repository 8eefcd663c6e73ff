// Cache-aware vertex relabeling.
//
// The decomposition engines walk adjacency rows and per-vertex state
// arrays indexed by vertex id, so the memory-access pattern of a run is
// the graph's labeling. Generators hand out labels in generation order
// (RGG: point order, i.e. random), which scatters neighbors across the
// arrays; a locality-preserving relabeling packs topologically close
// vertices into close ids and makes the same run markedly
// cache-friendlier at the million-vertex scale.
//
// Everything is expressed through a `Permutation` (old<->new bijection):
// `apply_layout` rebuilds the graph under new ids, and the carving entry
// points (carving_protocol.hpp) accept the layout so radii, tie-breaks,
// and the returned clustering all stay keyed to the ORIGINAL ids —
// a relabeled run is bit-identical to an unrelabeled one (asserted by
// tests/test_relabel.cpp).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

/// A bijection on [0, n): the relabeling in both directions.
struct Permutation {
  std::vector<VertexId> to_new;  // to_new[old id] = new id
  std::vector<VertexId> to_old;  // to_old[new id] = old id

  VertexId size() const { return static_cast<VertexId>(to_new.size()); }

  /// The identity layout on n vertices.
  static Permutation identity(VertexId n);

  /// Builds from the old->new map; throws unless it is a bijection.
  static Permutation from_to_new(std::vector<VertexId> to_new);

  /// The reverse relabeling (swaps the two directions).
  Permutation inverse() const { return Permutation{to_old, to_new}; }
};

/// BFS visit order from vertex 0 (remaining components in id order):
/// neighbors land within a BFS-frontier width of each other. The right
/// default for meshes, rings, and other bounded-growth graphs.
Permutation bfs_layout(const Graph& g);

/// Geometric bucket order: vertices sorted by grid cell (row-major over
/// a cells_per_side x cells_per_side grid on the unit square, point
/// order within a cell). The natural layout for random geometric graphs
/// — neighbors are within one cell row of each other. Coordinates must
/// lie in [0, 1]; cells_per_side >= 1.
Permutation grid_bucket_layout(std::span<const double> x,
                               std::span<const double> y,
                               std::int32_t cells_per_side);

/// Rebuilds g with every vertex v renamed to layout.to_new[v]. O(n + m):
/// the new rows are filled by transposition, walking new ids in
/// ascending order and appending each to its new neighbours' rows, so
/// they come out sorted with no sort. g must be symmetric: a new row
/// that would receive more entries than its degree throws
/// std::logic_error instead of writing out of bounds.
Graph apply_layout(const Graph& g, const Permutation& layout);

/// A relabeled graph bundled with the layout that produced it — what the
/// layout-aware runners (run_schedule_distributed overload) consume to
/// translate results back to original ids.
struct LayoutGraph {
  Graph graph;         // relabeled: vertex layout.to_new[v] is old v
  Permutation layout;
};

/// apply_layout + bundle.
LayoutGraph make_layout_graph(const Graph& g, Permutation layout);

/// Maps a per-vertex array indexed by NEW ids back to original ids.
template <typename T>
std::vector<T> unpermute(const std::vector<T>& by_new_id,
                         const Permutation& layout) {
  std::vector<T> by_old_id(by_new_id.size());
  for (std::size_t v = 0; v < by_new_id.size(); ++v) {
    by_old_id[static_cast<std::size_t>(
        layout.to_old[v])] = by_new_id[v];
  }
  return by_old_id;
}

}  // namespace dsnd
