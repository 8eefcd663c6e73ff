// The classic network-decomposition solving pipeline ([AGLP89], recalled
// in the paper's introduction): given a (D, chi) decomposition with a
// chi-coloring of the supergraph, a symmetry-breaking problem is solved
// color class by color class. Clusters of one class are pairwise
// non-adjacent, so they run in parallel; each cluster gathers its
// topology plus the frozen decisions of adjacent vertices at a leader,
// solves locally, and disseminates — O(D) rounds per class (LOCAL
// model), O(D * chi) rounds total.
//
// This module provides the shared class iteration and the round
// accounting; mis.hpp / coloring.hpp / matching.hpp plug in their local
// solvers.
#pragma once

#include <cstdint>
#include <vector>

#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// Cluster ids grouped by color, colors ascending; index = color.
std::vector<std::vector<ClusterId>> clusters_by_color(
    const Clustering& clustering);

struct PipelineCost {
  /// Simulated LOCAL rounds: sum over color classes of
  /// 2 * (max cluster diameter in the class) + 2 (gather + scatter plus
  /// one boundary exchange each way).
  std::int64_t rounds = 0;
  std::int32_t color_classes = 0;
  std::int32_t max_cluster_diameter = 0;
};

/// Round accounting for the naive gather/solve/scatter execution over the
/// given decomposition. Requires connected clusters (strong diameter);
/// throws std::invalid_argument on a disconnected one. Only the largest
/// diameter of each class counts, so it comes from
/// color_class_strong_diameters (decomposition/validation.hpp): two BFS
/// sweeps bound every cluster, and the exact all-source sweep runs only
/// where the upper bound could raise its class's maximum — O(n + m) plus
/// those few sweeps.
PipelineCost pipeline_round_cost(const Graph& g,
                                 const Clustering& clustering);

}  // namespace dsnd
