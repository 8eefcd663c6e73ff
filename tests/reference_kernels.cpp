#include "reference_kernels.hpp"

#include <algorithm>

#include "decomposition/supergraph.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

namespace {

struct SweepResult {
  VertexId reached = 0;
  std::int32_t ecc = 0;
  VertexId farthest = -1;
};

/// BFS from `source` over the vertices v with in_cluster(v): how many it
/// reached, the source's eccentricity and the first vertex, in visit
/// order, at that depth. Resets the arena before returning.
template <typename InCluster>
SweepResult sweep(const Graph& g, VertexId source,
                  const InCluster& in_cluster, BfsArena& arena) {
  const auto visited = bfs(g, {&source, 1}, arena, in_cluster);
  SweepResult result;
  result.reached = static_cast<VertexId>(visited.size());
  result.ecc = arena.distance(visited.back());
  result.farthest = *std::partition_point(
      visited.begin(), visited.end(),
      [&](VertexId v) { return arena.distance(v) < result.ecc; });
  arena.reset();
  return result;
}

/// Running maximum where kInfiniteDiameter is absorbing.
void fold_max(std::int32_t& acc, std::int32_t value) {
  if (acc == kInfiniteDiameter || value == kInfiniteDiameter) {
    acc = kInfiniteDiameter;
  } else {
    acc = std::max(acc, value);
  }
}

}  // namespace

Graph reference_apply_layout(const Graph& g, const Permutation& layout) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  DSND_REQUIRE(layout.to_new.size() == n && layout.to_old.size() == n,
               "layout size must match the graph");
  std::vector<std::int64_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + g.degree(layout.to_old[v]);
  }
  std::vector<VertexId> adjacency(static_cast<std::size_t>(offsets[n]));
  for (std::size_t v = 0; v < n; ++v) {
    auto out = adjacency.begin() + offsets[v];
    for (const VertexId w : g.neighbors(layout.to_old[v])) {
      *out++ = layout.to_new[static_cast<std::size_t>(w)];
    }
    std::sort(adjacency.begin() + offsets[v],
              adjacency.begin() + offsets[v + 1]);
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

FastDecompositionReport reference_validate_decomposition_fast(
    const Graph& g, const Clustering& clustering) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  FastDecompositionReport report;
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
    const auto size = static_cast<VertexId>(cluster.size());
    total_size += static_cast<std::int64_t>(size);
    report.max_cluster_size = std::max(report.max_cluster_size, size);

    const VertexId center = clustering.center_of(c);
    const bool center_is_member = clustering.cluster_of(center) == c;
    if (!center_is_member) ++report.centerless_clusters;
    const VertexId root = center_is_member ? center : cluster.front();

    const auto in_cluster = [&clustering, c](VertexId v) {
      return clustering.cluster_of(v) == c;
    };
    const SweepResult first = sweep(g, root, in_cluster, arena);
    const bool connected = first.reached == size;
    if (!connected) ++report.disconnected_clusters;
    fold_max(report.max_radius_from_center,
             connected && center_is_member ? first.ecc : kInfiniteDiameter);
    fold_max(report.strong_diameter_upper,
             connected ? 2 * first.ecc : kInfiniteDiameter);
    if (connected) {
      fold_max(report.strong_diameter_lower,
               sweep(g, first.farthest, in_cluster, arena).ecc);
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

void PrintTo(const FastDecompositionReport& report, std::ostream* os) {
  *os << "{complete=" << report.complete
      << " proper=" << report.proper_phase_coloring
      << " clusters=" << report.num_clusters
      << " colors=" << report.num_colors
      << " disconnected=" << report.disconnected_clusters
      << " connected=" << report.all_clusters_connected
      << " centerless=" << report.centerless_clusters
      << " radius=" << report.max_radius_from_center
      << " lower=" << report.strong_diameter_lower
      << " upper=" << report.strong_diameter_upper
      << " avg_size=" << report.avg_cluster_size
      << " max_size=" << report.max_cluster_size << "}";
}

}  // namespace dsnd
