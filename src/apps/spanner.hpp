// Sparse spanners from decompositions and covers — the [DMP+05]
// application direction cited in the paper's introduction.
//
// Two constructions:
//
//  (a) spanner_by_decomposition: per-cluster BFS trees plus one
//      connecting edge per adjacent cluster pair. Stretch <= 4k - 3 for
//      a strong (2k-2, chi) decomposition; edge count
//      n - #clusters + |E(G(P))| (sparse when the supergraph is sparse).
//
//  (b) spanner_from_cover: BFS trees of every cover cluster of a
//      (W = 1, chi)-neighborhood cover. Every edge's endpoints share a
//      cluster, so stretch <= the largest cover-cluster diameter
//      (O(k)); edge count < chi * n because each vertex lies in at most
//      chi clusters — the O(n log n)-edge, O(log n)-stretch regime of
//      [DMP+05] when chi = O(log n).
//
// Both grow each tree with the library's bfs() on g itself, over one
// BfsArena per call that is reset after each tree, restricted by a
// cluster-id test (a) or a mask stamped with the cover cluster's index
// (b), so no cluster is copied into an induced subgraph. The root is the
// center when it is a member, else the smallest member.
#pragma once

#include <cstdint>
#include <vector>

#include "decomposition/covers.hpp"
#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

struct SpannerResult {
  Graph spanner;            // subgraph of g on the same vertex set
  std::int64_t edges = 0;
  /// Largest d_spanner(u, v) over edges (u, v) of g; the multiplicative
  /// stretch of the spanner (kInfiniteDiameter if disconnected — cannot
  /// happen for valid inputs).
  std::int32_t stretch = 0;
};

/// (a) — requires a complete partition with connected clusters.
SpannerResult spanner_by_decomposition(const Graph& g,
                                       const Clustering& clustering);

/// (b) — requires a cover with radius >= 1 and connected clusters.
SpannerResult spanner_from_cover(const Graph& g,
                                 const NeighborhoodCover& cover);

/// Max over edges (u,v) of G of d_H(u, v); kInfiniteDiameter if some
/// edge's endpoints are disconnected in H. (Edge stretch equals overall
/// multiplicative stretch for unweighted graphs.) A G-edge that is also
/// in H counts 1, found by merging the two sorted rows; every other edge
/// gets a level-synchronous bidirectional BFS in H, which explores two
/// balls of radius about d_H(u, v) / 2 instead of a whole BFS tree. Its
/// two sides are two BfsArenas allocated once per call, so concurrent
/// calls share nothing.
std::int32_t measure_stretch(const Graph& g, const Graph& spanner);

}  // namespace dsnd
