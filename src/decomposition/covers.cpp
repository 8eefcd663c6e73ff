#include "decomposition/covers.hpp"

#include <algorithm>

#include "decomposition/validation.hpp"
#include "graph/power.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

NeighborhoodCover build_neighborhood_cover(const Graph& g,
                                           const CoverOptions& options) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  DSND_REQUIRE(options.radius >= 1, "cover radius must be positive");
  DSND_REQUIRE(options.radius <= kMaxCoverRadius,
               "cover radius must be at most 2^30 - 1");

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
  // One multi-source BFS from each cluster's members, capped at
  // `radius`, over one arena: O(sum of the expanded clusters' volumes).
  std::vector<CoverCluster> clusters;
  const ClusterMembers members = clustering.members_csr();
  BfsArena arena(g.num_vertices());
  clusters.reserve(static_cast<std::size_t>(clustering.num_clusters()));
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto ball = bfs(g, members.of(c), arena, AdmitAll{}, radius);
    CoverCluster expanded;
    expanded.members.assign(ball.begin(), ball.end());
    std::sort(expanded.members.begin(), expanded.members.end());
    expanded.center = clustering.center_of(c);
    expanded.color = clustering.color_of(c);
    clusters.push_back(std::move(expanded));
    arena.reset();
  }
  return clusters;
}

CoverReport validate_cover(const Graph& g, const NeighborhoodCover& cover) {
  CoverReport report;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t num_clusters = cover.clusters.size();

  // Overlap counting and the average size.
  std::vector<std::int32_t> overlap(n, 0);
  std::int64_t total_size = 0;
  for (const CoverCluster& cluster : cover.clusters) {
    for (const VertexId v : cluster.members) {
      DSND_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < n,
                   "vertex out of range");
      ++overlap[static_cast<std::size_t>(v)];
    }
    total_size += static_cast<std::int64_t>(cluster.members.size());
  }
  for (const std::int32_t o : overlap) {
    report.max_overlap = std::max(report.max_overlap, o);
  }
  report.avg_cluster_size =
      num_clusters == 0 ? 0.0
                        : static_cast<double>(total_size) /
                              static_cast<double>(num_clusters);

  // (2) same-colored clusters disjoint: visit the clusters a color class
  // at a time, stamping each member with the class's color.
  report.color_classes_disjoint = true;
  std::vector<std::vector<std::size_t>> by_color;
  for (std::size_t i = 0; i < num_clusters; ++i) {
    const auto color = static_cast<std::size_t>(cover.clusters[i].color);
    if (by_color.size() <= color) by_color.resize(color + 1);
    by_color[color].push_back(i);
  }
  constexpr auto kUnstamped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> stamp(n, kUnstamped);
  for (std::size_t color = 0; color < by_color.size(); ++color) {
    for (const std::size_t i : by_color[color]) {
      for (const VertexId v : cover.clusters[i].members) {
        std::size_t& seen = stamp[static_cast<std::size_t>(v)];
        if (seen == color) report.color_classes_disjoint = false;
        seen = color;
      }
    }
  }

  // Per cluster, with its members stamped by its index:
  //   (1) every member's ball B(v, W), until some cluster holds it whole;
  //   (3) connectivity and strong diameter, by BFS from every member
  //       confined to the cluster.
  std::fill(stamp.begin(), stamp.end(), kUnstamped);
  std::vector<char> ball_covered(n, 0);
  BfsArena arena(g.num_vertices());
  report.all_clusters_connected = true;
  report.max_strong_diameter = 0;
  for (std::size_t i = 0; i < num_clusters; ++i) {
    const std::vector<VertexId>& members = cover.clusters[i].members;
    for (const VertexId v : members) {
      DSND_REQUIRE(stamp[static_cast<std::size_t>(v)] != i,
                   "duplicate vertex in cover cluster");
      stamp[static_cast<std::size_t>(v)] = i;
    }
    const auto in_cluster = [&stamp, i](VertexId v) {
      return stamp[static_cast<std::size_t>(v)] == i;
    };
    for (const VertexId v : members) {
      char& covered = ball_covered[static_cast<std::size_t>(v)];
      if (covered != 0) continue;
      const auto ball = bfs(g, {&v, 1}, arena, AdmitAll{}, cover.radius);
      covered = std::all_of(ball.begin(), ball.end(), in_cluster);
      arena.reset();
    }
    for (const VertexId v : members) {
      const auto reached = bfs(g, {&v, 1}, arena, in_cluster);
      const std::int32_t ecc = arena.distance(reached.back());
      arena.reset();
      if (reached.size() != members.size()) {
        report.all_clusters_connected = false;
        report.max_strong_diameter = kInfiniteDiameter;
        break;
      }
      if (report.max_strong_diameter == kInfiniteDiameter) break;
      report.max_strong_diameter = std::max(report.max_strong_diameter, ecc);
    }
  }
  report.all_balls_covered =
      std::all_of(ball_covered.begin(), ball_covered.end(),
                  [](char covered) { return covered != 0; });
  return report;
}

}  // namespace dsnd
