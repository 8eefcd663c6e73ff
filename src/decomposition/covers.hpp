// Sparse neighborhood covers from strong network decompositions — the
// application direction the paper highlights via [AP92, ABCP92]: covers
// drive compact routing and synchronizers.
//
// A (W, chi)-neighborhood cover is a collection of (overlapping) vertex
// sets ("cover clusters"), each assigned one of chi colors, such that
//   (1) for every vertex v some cover cluster contains the entire ball
//       B(v, W);
//   (2) same-colored cover clusters are disjoint (so each vertex lies in
//       at most chi clusters);
//   (3) every cover cluster is connected with strong diameter
//       O(W * k) — here at most (2W+1)(2k-2) + 2W.
//
// Construction: run the Elkin–Neiman decomposition on the power graph
// G^{2W+1} (clusters there are >= 2W+2 apart in G when same-colored),
// then expand every cluster by W hops in G. Expansion keeps same-colored
// clusters disjoint, swallows every ball around a member, and the
// G^{2W+1}-shortest-path structure keeps the expanded cluster connected
// in G.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "decomposition/elkin_neiman.hpp"
#include "graph/graph.hpp"

namespace dsnd {

struct CoverCluster {
  std::vector<VertexId> members;  // sorted
  VertexId center = -1;
  std::int32_t color = 0;
};

struct NeighborhoodCover {
  std::vector<CoverCluster> clusters;
  std::int32_t num_colors = 0;
  std::int32_t radius = 0;  // W
  /// Underlying decomposition accounting (phases == colors etc.).
  DecompositionRun base;
};

struct CoverOptions {
  std::int32_t radius = 2;  // W
  std::int32_t k = 0;       // decomposition radius parameter; 0 = ln n
  double c = 4.0;
  std::uint64_t seed = 1;
};

/// The largest cover radius W: the power graph's exponent 2W + 1 must
/// fit in 32 bits.
inline constexpr std::int32_t kMaxCoverRadius =
    (std::numeric_limits<std::int32_t>::max() - 1) / 2;

NeighborhoodCover build_neighborhood_cover(const Graph& g,
                                           const CoverOptions& options);

/// The expansion half of the construction, exposed on its own: grows
/// every cluster of a decomposition of G^{2W+1} by `radius` = W hops in
/// g (multi-source BFS from its members) and returns the cover
/// clusters. build_neighborhood_cover and the DecompositionService's
/// cover deliverable share this, so a service-carved base decomposition
/// expands exactly like the standalone path.
std::vector<CoverCluster> expand_clusters_to_cover(
    const Graph& g, const Clustering& clustering, std::int32_t radius);

struct CoverReport {
  bool all_balls_covered = false;   // property (1)
  bool color_classes_disjoint = false;  // property (2)
  std::int32_t max_overlap = 0;     // clusters containing one vertex
  std::int32_t max_strong_diameter = 0;  // kInfiniteDiameter if violated
  bool all_clusters_connected = false;
  double avg_cluster_size = 0.0;
};

/// Brute-force verification of the three cover properties.
CoverReport validate_cover(const Graph& g, const NeighborhoodCover& cover);

}  // namespace dsnd
