// The O(D * chi) MIS pipeline as a genuine LOCAL-model protocol on the
// simulator — the "naive algorithm" of the paper's introduction made
// concrete: clusters of each color class (processed in a fixed
// per-class round budget derived from the known diameter bound 2k-2)
// build a BFS tree from their center, convergecast their topology plus
// the frozen decisions of adjacent vertices to the leader, solve MIS
// locally, and broadcast the answers back down.
//
// Two things are worth measuring here (bench E7):
//  - rounds: chi color classes x O(k) rounds each = O(D * chi), vs the
//    CONGEST algorithms' accounting;
//  - message width: convergecast messages carry whole subtree topologies
//    — this pipeline is LOCAL, not CONGEST, and the max_message_words
//    metric quantifies exactly how non-CONGEST it is.
//
// The result is bit-identical to mis_by_decomposition() on the same
// clustering: the leader runs the same greedy (vertex-id order) and
// same-class clusters are non-adjacent, so decisions commute.
#pragma once

#include <cstdint>
#include <vector>

#include "decomposition/partition.hpp"
#include "graph/graph.hpp"
#include "simulator/engine.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

struct DistributedMisResult {
  std::vector<char> in_mis;
  SimMetrics sim;
  /// Rounds budgeted per color class: 3k + 2 (k steps of tree building,
  /// k of convergecast, the solve, k - 1 of downcast, the announce and
  /// the step it arrives in).
  std::int32_t rounds_per_class = 0;
  /// Colors in use, one window each (a carve's colors are its phase
  /// indices, with gaps where a phase carved nothing).
  std::int32_t classes = 0;
};

/// Runs the pipeline over a decomposition whose clusters have strong
/// radius (distance center -> member inside the cluster) at most k - 1,
/// which is what the Elkin–Neiman algorithms guarantee for parameter k.
/// Clusters must be connected and contain their centers. The pipeline is
/// time-driven: a vertex wakes itself for each step it acts on without
/// mail, so the engine runs only vertices with work. engine_options can
/// still enable parallel rounds. Nothing recovers a lost message, so a
/// lossy transport (Transport::lossy()) is refused with
/// std::invalid_argument.
DistributedMisResult mis_distributed_pipeline(
    const Graph& g, const Clustering& clustering, std::int32_t k,
    const EngineOptions& engine_options = {});

}  // namespace dsnd
