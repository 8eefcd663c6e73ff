// Honest validators for network decompositions, in two tiers.
//
// validate_decomposition is the brute-force ground truth the tests and
// benches assert against: exact strong diameter by all-source BFS inside
// every cluster, weak diameter by BFS in the whole graph, supergraph
// coloring edge-by-edge. Per-cluster work is all-pairs, so it is
// O(sum_C |C| * (|C| + m_C)) — fine for bench-sized graphs, hopeless at
// engine scale.
//
// validate_decomposition_fast is the O(n + m) batch tier for the
// million-vertex engine runs: two BFS sweeps per cluster over shared
// scratch arrays (no per-cluster allocations). It checks completeness,
// the phase coloring, connectivity and center radius *exactly*, and
// brackets the strong diameter between a double-sweep lower bound and
// the 2 * radius upper bound — the upper bound is precisely the
// certificate the paper's Claim 3 provides
// (radius <= k-1 from the center gives strong diameter <= 2k-2), so
// is_strong_decomposition() on the fast report is a sound, conservative
// check of the theorems' guarantees — and the one gate both the lossy
// recovery loop and the service apply before answering kOk.
//
// Every sweep is the library's bfs() (graph/traversal.hpp) over one
// BfsArena per call. The brute-force tier restricts it by comparing
// cluster ids. The fast tier builds the cluster-induced subgraph once, in
// one pass over g in vertex order that also decides the coloring: its
// vertices are positions in member order, so each sweep reads one
// cluster's contiguous rows instead of chasing g's rows at random.
#pragma once

#include <cstdint>
#include <vector>

#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// Marker for "infinite" diameter (disconnected cluster).
inline constexpr std::int32_t kInfiniteDiameter = -1;

struct DecompositionReport {
  bool complete = false;               // every vertex clustered
  bool proper_phase_coloring = false;  // per-cluster colors proper on G(P)
  std::int32_t num_clusters = 0;
  std::int32_t num_colors = 0;
  std::int32_t disconnected_clusters = 0;
  bool all_clusters_connected = false;
  /// Max over clusters; kInfiniteDiameter if any cluster is disconnected.
  std::int32_t max_strong_diameter = 0;
  std::int32_t max_weak_diameter = 0;
  std::int32_t max_radius_from_center = 0;
  double avg_cluster_size = 0.0;
  VertexId max_cluster_size = 0;

  /// True when this is a valid strong (diameter_bound, color_bound)
  /// network decomposition.
  bool is_strong_decomposition(std::int32_t diameter_bound,
                               std::int32_t color_bound) const;
};

/// Full brute-force validation pass. compute_weak toggles the O(n*m)
/// weak-diameter sweep; the strong sweep (all-source BFS per cluster) and
/// the exact center radius always run.
DecompositionReport validate_decomposition(const Graph& g,
                                           const Clustering& clustering,
                                           bool compute_weak = true);

/// Exact strong diameter of every cluster (kInfiniteDiameter where
/// disconnected), computed in one batch of restricted BFS over shared
/// scratch — the all-pairs cost without any induced-subgraph copies.
std::vector<std::int32_t> cluster_strong_diameters(
    const Graph& g, const Clustering& clustering);

/// Exact max strong diameter per color class, indexed by color: 0 for a
/// color with no clusters, kInfiniteDiameter for a class with a
/// disconnected cluster. Equals the per-class maximum of
/// cluster_strong_diameters without running all-source BFS everywhere:
/// two restricted sweeps per cluster — from the center (the first member
/// when the center lies outside the cluster), then from the farthest
/// vertex found — bracket its diameter as L <= diam <= U = 2 * ecc.
/// A class starts from its largest L, and only its clusters with U above
/// the running maximum get the all-source sweep, in descending U, until
/// the next U no longer beats the maximum. Cost: O(n + m) plus the
/// all-source sweeps of those few clusters.
std::vector<std::int32_t> color_class_strong_diameters(
    const Graph& g, const Clustering& clustering);

/// The O(n + m) report. Exact fields: completeness, coloring, counts,
/// connectivity, center radius, sizes. The strong diameter is bracketed:
///   strong_diameter_lower <= max_C diam(G(C)) <= strong_diameter_upper.
struct FastDecompositionReport {
  bool complete = false;
  bool proper_phase_coloring = false;
  std::int32_t num_clusters = 0;
  std::int32_t num_colors = 0;
  std::int32_t disconnected_clusters = 0;
  bool all_clusters_connected = false;
  /// Clusters whose recorded center is not one of their members. Only
  /// possible when truncated samples were accepted — i.e. once a phase's
  /// retry budget is spent (CarveResult::radius_overflow); the default
  /// Las Vegas recarve loop replays overflowed phases, so its runs never
  /// produce these.
  std::int32_t centerless_clusters = 0;
  /// Exact max over clusters of the center's eccentricity in G(C);
  /// kInfiniteDiameter if any cluster is disconnected or centerless.
  std::int32_t max_radius_from_center = 0;
  /// Double-sweep lower bound on the max strong diameter (exact on trees).
  std::int32_t strong_diameter_lower = 0;
  /// 2 * center-radius upper bound — Claim 3's certificate.
  std::int32_t strong_diameter_upper = 0;
  double avg_cluster_size = 0.0;
  VertexId max_cluster_size = 0;

  /// The library's gate on a carve (the recovery loop and the service
  /// call it): complete, properly phase-colored, every cluster connected
  /// and holding its center, and Claim 3's 2 * radius certificate within
  /// `diameter_bound`. Sound: `true` is always correct, while a run that
  /// only just meets the bound may need the brute-force tier to confirm.
  /// No color bound: a run carves to completion, so overtime phases may
  /// use more colors than the schedule's lambda.
  bool is_strong_decomposition(double diameter_bound) const;

  /// Every field equal.
  bool operator==(const FastDecompositionReport&) const = default;
};

/// Batch validator for engine-scale runs: O(n + m) total, two BFS sweeps
/// per cluster on the cluster-induced subgraph, over arena scratch
/// shared across clusters.
FastDecompositionReport validate_decomposition_fast(
    const Graph& g, const Clustering& clustering);

}  // namespace dsnd
