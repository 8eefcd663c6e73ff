#include "apps/spanner.hpp"

#include <algorithm>
#include <set>

#include "decomposition/validation.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

namespace {

/// Adds the edges of a BFS tree of G(C) rooted at `root`, where C is the
/// `size` vertices with in_cluster(v), and resets the arena. The BFS runs
/// on g itself: rows are sorted, so it discovers vertices in the same
/// order as a BFS of the renumbered induced subgraph would. C must be
/// connected.
template <typename InCluster>
void add_bfs_tree(const Graph& g, VertexId root, VertexId size,
                  const InCluster& in_cluster, BfsArena& arena,
                  std::vector<Edge>& edges) {
  const auto tree =
      bfs(g, {&root, 1}, arena, in_cluster, kNoDepthLimit,
          [&edges](VertexId u, VertexId w) {
            edges.push_back({u, w});
          });
  DSND_CHECK(static_cast<VertexId>(tree.size()) == size,
             "spanner tree construction requires connected clusters");
  arena.reset();
}

SpannerResult finish(const Graph& g, std::vector<Edge> edges) {
  SpannerResult result;
  // Overlapping cover clusters can contribute one edge twice.
  result.spanner =
      Graph::from_edges(g.num_vertices(), std::move(edges), /*normalize=*/true);
  result.edges = result.spanner.num_edges();
  result.stretch = measure_stretch(g, result.spanner);
  return result;
}

/// d_H(s, t) for s != t, or kUnreachable. Level-synchronous bidirectional
/// BFS: each step expands one full level of the side whose frontier is
/// smaller. While the two labelled sets stay disjoint, d_H(s, t) exceeds
/// the sum of the two depths, so the first level that reaches the other
/// side's labels meets it at the true distance; the minimum candidate
/// over that level is returned. A side whose frontier empties first has
/// labelled its whole component without meeting the other.
std::int32_t bidirectional_distance(const Graph& h, VertexId s, VertexId t,
                                    BfsArena (&sides)[2]) {
  // Side i's labelled vertices are sides[i].order(); its frontier, all at
  // distance depth[i], is the suffix from head[i].
  std::size_t head[2] = {0, 0};
  std::int32_t depth[2] = {0, 0};
  sides[0].visit(s, 0);
  sides[1].visit(t, 0);
  const auto frontier = [&](int side) {
    return sides[side].order().size() - head[side];
  };
  std::int32_t best = kUnreachable;
  while (best == kUnreachable && frontier(0) > 0 && frontier(1) > 0) {
    const int side = frontier(0) <= frontier(1) ? 0 : 1;
    BfsArena& mine = sides[side];
    const BfsArena& other = sides[1 - side];
    const std::int32_t next = ++depth[side];
    const std::size_t level_end = mine.order().size();
    for (std::size_t i = head[side]; i < level_end; ++i) {
      for (const VertexId y : h.neighbors(mine.order()[i])) {
        const std::int32_t across = other.distance(y);
        if (across != kUnreachable &&
            (best == kUnreachable || next + across < best)) {
          best = next + across;
        }
        mine.visit(y, next);
      }
    }
    head[side] = level_end;
  }
  sides[0].reset();
  sides[1].reset();
  return best;
}

}  // namespace

SpannerResult spanner_by_decomposition(const Graph& g,
                                       const Clustering& clustering) {
  DSND_REQUIRE(clustering.num_vertices() == g.num_vertices(),
               "clustering does not match graph");
  DSND_REQUIRE(clustering.is_complete(),
               "spanner requires a complete partition");
  std::vector<Edge> edges;
  const ClusterMembers members = clustering.members_csr();
  BfsArena arena(g.num_vertices());
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto cluster = members.of(c);
    if (cluster.empty()) continue;
    const VertexId center = clustering.center_of(c);
    const VertexId root =
        clustering.cluster_of(center) == c ? center : cluster.front();
    add_bfs_tree(
        g, root, static_cast<VertexId>(cluster.size()),
        [&clustering, c](VertexId v) { return clustering.cluster_of(v) == c; },
        arena, edges);
  }
  // One connecting edge per adjacent cluster pair: the lexicographically
  // smallest, for determinism.
  std::set<std::pair<ClusterId, ClusterId>> connected_pairs;
  g.for_each_edge([&](VertexId u, VertexId v) {
    ClusterId cu = clustering.cluster_of(u);
    ClusterId cv = clustering.cluster_of(v);
    if (cu == cv) return;
    if (cu > cv) std::swap(cu, cv);
    if (connected_pairs.insert({cu, cv}).second) edges.push_back({u, v});
  });
  return finish(g, std::move(edges));
}

SpannerResult spanner_from_cover(const Graph& g,
                                 const NeighborhoodCover& cover) {
  DSND_REQUIRE(cover.radius >= 1, "cover radius must be >= 1");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  BfsArena arena(g.num_vertices());
  // Cover clusters overlap, so membership is a mask stamped with the
  // cluster's index rather than a cluster id per vertex.
  std::vector<std::int32_t> member(n, -1);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < cover.clusters.size(); ++i) {
    const CoverCluster& cluster = cover.clusters[i];
    if (cluster.members.empty()) continue;
    const auto stamp = static_cast<std::int32_t>(i);
    VertexId smallest = cluster.members.front();
    for (const VertexId v : cluster.members) {
      DSND_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < n,
                   "vertex out of range");
      DSND_REQUIRE(member[static_cast<std::size_t>(v)] != stamp,
                   "duplicate vertex in cover cluster");
      member[static_cast<std::size_t>(v)] = stamp;
      smallest = std::min(smallest, v);
    }
    const auto in_cluster = [&member, stamp](VertexId v) {
      return member[static_cast<std::size_t>(v)] == stamp;
    };
    const VertexId center = cluster.center;
    const bool center_is_member = center >= 0 &&
                                  static_cast<std::size_t>(center) < n &&
                                  in_cluster(center);
    add_bfs_tree(g, center_is_member ? center : smallest,
                 static_cast<VertexId>(cluster.members.size()), in_cluster,
                 arena, edges);
  }
  return finish(g, std::move(edges));
}

std::int32_t measure_stretch(const Graph& g, const Graph& spanner) {
  DSND_REQUIRE(spanner.num_vertices() == g.num_vertices(),
               "spanner must be on the same vertex set");
  BfsArena sides[2] = {BfsArena(g.num_vertices()),
                       BfsArena(g.num_vertices())};
  std::int32_t stretch = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    // Both rows are sorted, so one cursor finds the G-edges kept in H.
    const auto row = spanner.neighbors(u);
    auto kept = row.begin();
    for (const VertexId v : g.neighbors(u)) {
      if (v < u) continue;
      while (kept != row.end() && *kept < v) ++kept;
      const std::int32_t d = kept != row.end() && *kept == v
                                 ? 1
                                 : bidirectional_distance(spanner, u, v, sides);
      if (d == kUnreachable) return kInfiniteDiameter;
      stretch = std::max(stretch, d);
    }
  }
  return stretch;
}

}  // namespace dsnd
