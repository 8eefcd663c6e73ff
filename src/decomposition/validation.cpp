#include "decomposition/validation.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "decomposition/supergraph.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

namespace {

/// One BFS sweep inside a cluster: how many members it reached, the
/// source's eccentricity, and the first vertex, in visit order, at that
/// depth.
struct SweepResult {
  VertexId reached = 0;
  std::int32_t ecc = 0;
  VertexId farthest = -1;
};

/// BFS from `source` over the vertices v with in_cluster(v); resets the
/// arena before returning.
template <typename InCluster>
SweepResult sweep(const Graph& g, VertexId source,
                  const InCluster& in_cluster, BfsArena& arena) {
  const auto visited = bfs(g, {&source, 1}, arena, in_cluster);
  SweepResult result;
  result.reached = static_cast<VertexId>(visited.size());
  result.ecc = arena.distance(visited.back());
  // Visit order is nondecreasing in depth.
  result.farthest = *std::partition_point(
      visited.begin(), visited.end(),
      [&](VertexId v) { return arena.distance(v) < result.ecc; });
  arena.reset();
  return result;
}

/// Exact per-cluster strong metrics: connectivity, all-pairs diameter,
/// and the center's eccentricity, via restricted BFS (no copies).
struct StrongStats {
  bool connected = false;
  std::int32_t diameter = 0;           // kInfiniteDiameter if disconnected
  std::int32_t radius_from_center = 0; // kInfiniteDiameter if unreachable
};

template <typename InCluster>
StrongStats exact_strong_stats(const Graph& g,
                               std::span<const VertexId> members,
                               VertexId center, const InCluster& in_cluster,
                               BfsArena& arena) {
  StrongStats stats;
  const auto size = static_cast<VertexId>(members.size());
  stats.connected = true;
  for (const VertexId source : members) {
    const SweepResult result = sweep(g, source, in_cluster, arena);
    if (result.reached < size) stats.connected = false;
    stats.diameter = std::max(stats.diameter, result.ecc);
    if (source == center) stats.radius_from_center = result.ecc;
  }
  if (!stats.connected) stats.diameter = kInfiniteDiameter;
  const bool center_is_member =
      center >= 0 && in_cluster(center);
  if (!center_is_member || !stats.connected) {
    stats.radius_from_center = kInfiniteDiameter;
  }
  return stats;
}

/// Folds a per-cluster diameter into a running maximum where
/// kInfiniteDiameter is absorbing.
void fold_max(std::int32_t& acc, std::int32_t value) {
  if (acc == kInfiniteDiameter || value == kInfiniteDiameter) {
    acc = kInfiniteDiameter;
  } else {
    acc = std::max(acc, value);
  }
}

std::int32_t weak_diameter_of(const Graph& g,
                              std::span<const VertexId> members,
                              BfsArena& arena) {
  std::int32_t weak = 0;
  for (const VertexId v : members) {
    bfs(g, {&v, 1}, arena);
    for (const VertexId w : members) {
      const std::int32_t d = arena.distance(w);
      fold_max(weak, d == kUnreachable ? kInfiniteDiameter : d);
    }
    arena.reset();
  }
  return weak;
}

}  // namespace

bool DecompositionReport::is_strong_decomposition(
    std::int32_t diameter_bound, std::int32_t color_bound) const {
  return complete && proper_phase_coloring && all_clusters_connected &&
         max_strong_diameter != kInfiniteDiameter &&
         max_strong_diameter <= diameter_bound && num_colors <= color_bound;
}

DecompositionReport validate_decomposition(const Graph& g,
                                           const Clustering& clustering,
                                           bool compute_weak) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  DecompositionReport report;
  report.complete = clustering.is_complete();
  report.proper_phase_coloring = phase_coloring_is_proper(g, clustering);
  report.num_clusters = clustering.num_clusters();
  report.num_colors = clustering.num_colors();

  const ClusterMembers members = clustering.members_csr();
  BfsArena arena(g.num_vertices());
  std::int64_t total_size = 0;
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto cluster = members.of(c);
    DSND_CHECK(!cluster.empty(), "empty cluster in clustering");
    total_size += static_cast<std::int64_t>(cluster.size());
    report.max_cluster_size =
        std::max(report.max_cluster_size,
                 static_cast<VertexId>(cluster.size()));

    const auto in_cluster = [&clustering, c](VertexId v) {
      return clustering.cluster_of(v) == c;
    };
    const StrongStats stats = exact_strong_stats(
        g, cluster, clustering.center_of(c), in_cluster, arena);
    if (!stats.connected) ++report.disconnected_clusters;
    fold_max(report.max_strong_diameter, stats.diameter);
    fold_max(report.max_radius_from_center, stats.radius_from_center);
    if (compute_weak) {
      fold_max(report.max_weak_diameter,
               weak_diameter_of(g, cluster, arena));
    }
  }
  report.all_clusters_connected = report.disconnected_clusters == 0;
  report.avg_cluster_size =
      clustering.num_clusters() == 0
          ? 0.0
          : static_cast<double>(total_size) /
                static_cast<double>(clustering.num_clusters());
  return report;
}

std::vector<std::int32_t> cluster_strong_diameters(
    const Graph& g, const Clustering& clustering) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  const ClusterMembers members = clustering.members_csr();
  BfsArena arena(g.num_vertices());
  std::vector<std::int32_t> diameters(
      static_cast<std::size_t>(clustering.num_clusters()), 0);
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto in_cluster = [&clustering, c](VertexId v) {
      return clustering.cluster_of(v) == c;
    };
    diameters[static_cast<std::size_t>(c)] =
        exact_strong_stats(g, members.of(c), clustering.center_of(c),
                           in_cluster, arena)
            .diameter;
  }
  return diameters;
}

std::vector<std::int32_t> color_class_strong_diameters(
    const Graph& g, const Clustering& clustering) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  const ClusterMembers members = clustering.members_csr();
  BfsArena arena(g.num_vertices());
  const auto num_clusters = static_cast<std::size_t>(clustering.num_clusters());
  // Two sweeps per cluster bracket its diameter: the root's eccentricity
  // e gives e <= diam <= 2e = upper, and the sweep from the farthest
  // vertex found gives lower <= diam.
  std::vector<std::int32_t> upper(num_clusters, 0);
  std::vector<std::int32_t> best(
      static_cast<std::size_t>(clustering.num_colors()), 0);
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto cluster = members.of(c);
    if (cluster.empty()) continue;
    const auto in_cluster = [&clustering, c](VertexId v) {
      return clustering.cluster_of(v) == c;
    };
    const VertexId center = clustering.center_of(c);
    const VertexId root =
        clustering.cluster_of(center) == c ? center : cluster.front();
    const SweepResult first = sweep(g, root, in_cluster, arena);
    std::int32_t& class_best =
        best[static_cast<std::size_t>(clustering.color_of(c))];
    if (first.reached < static_cast<VertexId>(cluster.size())) {
      class_best = kInfiniteDiameter;
      continue;
    }
    upper[static_cast<std::size_t>(c)] = 2 * first.ecc;
    fold_max(class_best,
             sweep(g, first.farthest, in_cluster, arena).ecc);
  }
  // Only a cluster whose upper bound beats its class's best so far can
  // raise the class maximum. Visit those in descending upper bound, run
  // the exact all-source sweep, and skip the rest of the class once the
  // bound no longer beats the best.
  std::vector<ClusterId> candidates;
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const std::int32_t class_best =
        best[static_cast<std::size_t>(clustering.color_of(c))];
    if (class_best != kInfiniteDiameter &&
        upper[static_cast<std::size_t>(c)] > class_best) {
      candidates.push_back(c);
    }
  }
  const auto order = [&](ClusterId c) {
    return std::tuple(clustering.color_of(c),
                      -upper[static_cast<std::size_t>(c)], c);
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](ClusterId a, ClusterId b) { return order(a) < order(b); });
  for (const ClusterId c : candidates) {
    std::int32_t& class_best =
        best[static_cast<std::size_t>(clustering.color_of(c))];
    if (upper[static_cast<std::size_t>(c)] <= class_best) continue;
    const auto in_cluster = [&clustering, c](VertexId v) {
      return clustering.cluster_of(v) == c;
    };
    class_best = std::max(
        class_best, exact_strong_stats(g, members.of(c),
                                       clustering.center_of(c), in_cluster,
                                       arena)
                        .diameter);
  }
  return best;
}

bool FastDecompositionReport::is_strong_decomposition(
    double diameter_bound) const {
  return complete && proper_phase_coloring && all_clusters_connected &&
         centerless_clusters == 0 &&
         strong_diameter_upper != kInfiniteDiameter &&
         strong_diameter_upper <= diameter_bound;
}

FastDecompositionReport validate_decomposition_fast(
    const Graph& g, const Clustering& clustering) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  FastDecompositionReport report;
  report.complete = clustering.is_complete();
  report.num_clusters = clustering.num_clusters();
  report.num_colors = clustering.num_colors();

  // Every assigned vertex gets a position: its index in member order
  // (clusters in id order, members in increasing vertex order), so each
  // cluster is one run of positions.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto num_clusters = static_cast<std::size_t>(report.num_clusters);
  struct Slot {
    ClusterId cluster;
    VertexId position;
  };
  std::vector<Slot> slot(n);
  std::vector<std::int32_t> color(num_clusters);
  std::vector<VertexId> start(num_clusters + 1, 0);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    color[c] = clustering.color_of(static_cast<ClusterId>(c));
  }
  for (std::size_t v = 0; v < n; ++v) {
    const ClusterId c = clustering.cluster_of(static_cast<VertexId>(v));
    slot[v].cluster = c;
    if (c != kNoCluster) ++start[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 0; c < num_clusters; ++c) start[c + 1] += start[c];
  const auto assigned = static_cast<std::size_t>(start[num_clusters]);
  {
    std::vector<VertexId> cursor(start.begin(), start.end() - 1);
    for (Slot& at : slot) {
      if (at.cluster == kNoCluster) continue;
      at.position = cursor[static_cast<std::size_t>(at.cluster)]++;
    }
  }

  // One pass over g in vertex order decides the phase coloring (an edge
  // between two clusters of one color) and keeps every edge inside a
  // cluster as a position, recording where each position's kept row
  // starts and its length. Edges at unassigned vertices are skipped.
  bool proper = true;
  const std::span<const std::int64_t> g_offsets = g.csr_offsets();
  const std::span<const VertexId> g_adjacency = g.csr_adjacency();
  const std::size_t entries = g_adjacency.size();
  constexpr std::size_t kAhead = 32;
  std::vector<VertexId> kept;
  kept.reserve(entries);  // pages never written stay free
  std::vector<std::size_t> kept_at(assigned);
  std::vector<std::int64_t> offsets(assigned + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const Slot at = slot[v];
    if (at.cluster == kNoCluster) continue;
    const std::size_t first = kept.size();
    for (auto i = static_cast<std::size_t>(g_offsets[v]);
         i < static_cast<std::size_t>(g_offsets[v + 1]); ++i) {
      if (i + kAhead < entries) {
        __builtin_prefetch(slot.data() + g_adjacency[i + kAhead]);
      }
      const Slot other = slot[static_cast<std::size_t>(g_adjacency[i])];
      if (other.cluster == at.cluster) {
        kept.push_back(other.position);
      } else if (other.cluster != kNoCluster &&
                 color[static_cast<std::size_t>(other.cluster)] ==
                     color[static_cast<std::size_t>(at.cluster)]) {
        proper = false;
      }
    }
    const auto position = static_cast<std::size_t>(at.position);
    kept_at[position] = first;
    offsets[position + 1] = static_cast<std::int64_t>(kept.size() - first);
  }
  report.proper_phase_coloring = proper;

  // The cluster-induced graph on positions: every component lies inside
  // one cluster, and since positions ascend with vertex id inside a
  // cluster, its rows list each member's same-cluster neighbours in the
  // order g does. A sweep from a position therefore visits the vertices
  // a sweep restricted to the cluster would, in the same order.
  for (std::size_t p = 0; p < assigned; ++p) offsets[p + 1] += offsets[p];
  std::vector<VertexId> adjacency(static_cast<std::size_t>(offsets[assigned]));
  for (std::size_t p = 0; p < assigned; ++p) {
    const auto row = kept.begin() + static_cast<std::ptrdiff_t>(kept_at[p]);
    std::copy(row, row + (offsets[p + 1] - offsets[p]),
              adjacency.begin() + offsets[p]);
  }
  const Graph induced =
      Graph::from_csr(std::move(offsets), std::move(adjacency));

  BfsArena arena(induced.num_vertices());
  std::int64_t total_size = 0;
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const VertexId size = start[c + 1] - start[c];
    DSND_CHECK(size > 0, "empty cluster in clustering");
    total_size += static_cast<std::int64_t>(size);
    report.max_cluster_size = std::max(report.max_cluster_size, size);

    const VertexId center = clustering.center_of(static_cast<ClusterId>(c));
    const Slot at_center = slot[static_cast<std::size_t>(center)];
    const bool center_is_member =
        at_center.cluster == static_cast<ClusterId>(c);
    if (!center_is_member) ++report.centerless_clusters;
    const VertexId root = center_is_member ? at_center.position : start[c];

    // Sweep 1 from the root: connectivity, the exact center radius (when
    // the root is the center), and the 2*ecc upper bound.
    const SweepResult first = sweep(induced, root, AdmitAll{}, arena);
    const bool connected = first.reached == size;
    if (!connected) ++report.disconnected_clusters;
    fold_max(report.max_radius_from_center,
             connected && center_is_member ? first.ecc : kInfiniteDiameter);
    fold_max(report.strong_diameter_upper,
             connected ? 2 * first.ecc : kInfiniteDiameter);
    // Sweep 2 from the farthest vertex: the double-sweep diameter lower
    // bound (exact on trees).
    if (connected) {
      const SweepResult second =
          sweep(induced, first.farthest, AdmitAll{}, arena);
      fold_max(report.strong_diameter_lower, second.ecc);
    } else {
      fold_max(report.strong_diameter_lower, kInfiniteDiameter);
    }
  }
  report.all_clusters_connected = report.disconnected_clusters == 0;
  report.avg_cluster_size =
      clustering.num_clusters() == 0
          ? 0.0
          : static_cast<double>(total_size) /
                static_cast<double>(clustering.num_clusters());
  return report;
}

}  // namespace dsnd
