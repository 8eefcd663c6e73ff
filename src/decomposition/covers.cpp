#include "decomposition/covers.hpp"

#include <algorithm>
#include <queue>

#include "decomposition/validation.hpp"
#include "graph/power.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

NeighborhoodCover build_neighborhood_cover(const Graph& g,
                                           const CoverOptions& options) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  DSND_REQUIRE(options.radius >= 1, "cover radius must be positive");

  NeighborhoodCover cover;
  cover.radius = options.radius;

  // 1. Decompose the (2W+1)-th power: same-colored clusters there are at
  //    G-distance >= 2W+2 from each other.
  const Graph power = graph_power(g, 2 * options.radius + 1);
  cover.base = run_schedule(
      power, theorem1_schedule(power.num_vertices(), options.k, options.c),
      options.seed);
  const Clustering& clustering = cover.base.clustering();
  cover.num_colors = clustering.num_colors();

  // 2. Expand every cluster by W hops in G.
  cover.clusters = expand_clusters_to_cover(g, clustering, options.radius);
  return cover;
}

std::vector<CoverCluster> expand_clusters_to_cover(
    const Graph& g, const Clustering& clustering, std::int32_t radius) {
  DSND_REQUIRE(radius >= 1, "cover radius must be positive");
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering and graph vertex counts differ");
  // Multi-source BFS from each cluster's members, capped at `radius`.
  std::vector<CoverCluster> clusters;
  const ClusterMembers members = clustering.members_csr();
  clusters.reserve(static_cast<std::size_t>(clustering.num_clusters()));
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto core = members.of(c);
    const auto dist = multi_source_bfs(g, core);
    CoverCluster expanded;
    expanded.center = clustering.center_of(c);
    expanded.color = clustering.color_of(c);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::int32_t d = dist[static_cast<std::size_t>(v)];
      if (d != kUnreachable && d <= radius) {
        expanded.members.push_back(v);
      }
    }
    clusters.push_back(std::move(expanded));
  }
  return clusters;
}

CoverReport validate_cover(const Graph& g, const NeighborhoodCover& cover) {
  CoverReport report;
  const auto n = static_cast<std::size_t>(g.num_vertices());

  // Membership bitmaps per cluster for fast ball checks, plus overlap
  // counting and per-color disjointness.
  std::vector<std::vector<char>> in_cluster(cover.clusters.size(),
                                            std::vector<char>(n, 0));
  std::vector<std::int32_t> overlap(n, 0);
  std::int64_t total_size = 0;
  for (std::size_t i = 0; i < cover.clusters.size(); ++i) {
    for (const VertexId v : cover.clusters[i].members) {
      in_cluster[i][static_cast<std::size_t>(v)] = 1;
      ++overlap[static_cast<std::size_t>(v)];
    }
    total_size += static_cast<std::int64_t>(cover.clusters[i].members.size());
  }
  report.max_overlap = 0;
  for (const std::int32_t o : overlap) {
    report.max_overlap = std::max(report.max_overlap, o);
  }
  report.avg_cluster_size =
      cover.clusters.empty()
          ? 0.0
          : static_cast<double>(total_size) /
                static_cast<double>(cover.clusters.size());

  // (2) same-colored clusters disjoint.
  report.color_classes_disjoint = true;
  std::vector<std::vector<std::size_t>> by_color;
  for (std::size_t i = 0; i < cover.clusters.size(); ++i) {
    const auto color = static_cast<std::size_t>(cover.clusters[i].color);
    if (by_color.size() <= color) by_color.resize(color + 1);
    by_color[color].push_back(i);
  }
  for (const auto& group : by_color) {
    std::vector<char> seen(n, 0);
    for (const std::size_t i : group) {
      for (const VertexId v : cover.clusters[i].members) {
        if (seen[static_cast<std::size_t>(v)]) {
          report.color_classes_disjoint = false;
        }
        seen[static_cast<std::size_t>(v)] = 1;
      }
    }
  }

  // (1) every ball B(v, W) inside some cluster.
  report.all_balls_covered = true;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Collect B(v, W).
    std::vector<VertexId> ball;
    {
      std::vector<std::int32_t> dist(n, -1);
      std::queue<VertexId> frontier;
      dist[static_cast<std::size_t>(v)] = 0;
      frontier.push(v);
      ball.push_back(v);
      while (!frontier.empty()) {
        const VertexId u = frontier.front();
        frontier.pop();
        if (dist[static_cast<std::size_t>(u)] == cover.radius) continue;
        for (VertexId w : g.neighbors(u)) {
          if (dist[static_cast<std::size_t>(w)] != -1) continue;
          dist[static_cast<std::size_t>(w)] =
              dist[static_cast<std::size_t>(u)] + 1;
          ball.push_back(w);
          frontier.push(w);
        }
      }
    }
    bool covered = false;
    for (std::size_t i = 0; i < cover.clusters.size() && !covered; ++i) {
      if (!in_cluster[i][static_cast<std::size_t>(v)]) continue;
      covered = std::all_of(ball.begin(), ball.end(), [&](VertexId u) {
        return in_cluster[i][static_cast<std::size_t>(u)] != 0;
      });
    }
    if (!covered) report.all_balls_covered = false;
  }

  // (3) connectivity and strong diameter of every cover cluster.
  report.all_clusters_connected = true;
  report.max_strong_diameter = 0;
  for (const CoverCluster& cluster : cover.clusters) {
    const InducedSubgraph sub = induced_subgraph(g, cluster.members);
    if (!is_connected(sub.graph)) {
      report.all_clusters_connected = false;
      report.max_strong_diameter = kInfiniteDiameter;
      continue;
    }
    if (report.max_strong_diameter != kInfiniteDiameter) {
      report.max_strong_diameter = std::max(report.max_strong_diameter,
                                            exact_diameter(sub.graph));
    }
  }
  return report;
}

}  // namespace dsnd
