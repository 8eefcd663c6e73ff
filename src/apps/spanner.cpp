#include "apps/spanner.hpp"

#include <algorithm>
#include <set>

#include "decomposition/validation.hpp"
#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

namespace {

/// Scratch for the per-cluster tree BFS, allocated once per spanner
/// construction. seen[v] == stamp marks v visited by the tree whose
/// cluster carries that stamp, so nothing is cleared between clusters.
struct TreeArena {
  std::vector<std::int32_t> seen;
  std::vector<VertexId> queue;

  explicit TreeArena(std::size_t n) : seen(n, -1), queue(n, 0) {}
};

/// Adds the edges of a BFS tree of G(C) rooted at `root`, where C is the
/// `size` vertices with in_cluster(v) and `stamp` is unique to C. The BFS
/// runs on g itself: rows are sorted, so it discovers vertices in the
/// same order as a BFS of the renumbered induced subgraph would. C must
/// be connected.
template <typename InCluster>
void add_bfs_tree(const Graph& g, VertexId root, VertexId size,
                  std::int32_t stamp, const InCluster& in_cluster,
                  TreeArena& arena, std::vector<Edge>& edges) {
  arena.seen[static_cast<std::size_t>(root)] = stamp;
  arena.queue[0] = root;
  VertexId head = 0;
  VertexId tail = 1;
  while (head < tail) {
    const VertexId u = arena.queue[static_cast<std::size_t>(head++)];
    for (const VertexId w : g.neighbors(u)) {
      if (arena.seen[static_cast<std::size_t>(w)] == stamp ||
          !in_cluster(w)) {
        continue;
      }
      arena.seen[static_cast<std::size_t>(w)] = stamp;
      arena.queue[static_cast<std::size_t>(tail++)] = w;
      edges.push_back({std::min(u, w), std::max(u, w)});
    }
  }
  DSND_CHECK(tail == size,
             "spanner tree construction requires connected clusters");
}

SpannerResult finish(const Graph& g, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  SpannerResult result;
  result.spanner = Graph::from_edges(g.num_vertices(), std::move(edges));
  result.edges = result.spanner.num_edges();
  result.stretch = measure_stretch(g, result.spanner);
  return result;
}

/// Scratch for measure_stretch's bidirectional searches: per side
/// (0 = from u, 1 = from v) a distance array (-1 = unlabelled) and a
/// queue holding every labelled vertex in BFS order. Allocated once per
/// call and reset by walking the queues.
struct BidirectionalArena {
  std::vector<std::int32_t> dist[2];
  std::vector<VertexId> queue[2];

  explicit BidirectionalArena(std::size_t n)
      : dist{std::vector<std::int32_t>(n, -1),
             std::vector<std::int32_t>(n, -1)},
        queue{std::vector<VertexId>(n, 0), std::vector<VertexId>(n, 0)} {}
};

/// d_H(s, t) for s != t, or kUnreachable. Level-synchronous bidirectional
/// BFS: each step expands one full level of the side whose frontier is
/// smaller. While the two labelled sets stay disjoint, d_H(s, t) exceeds
/// the sum of the two depths, so the first level that reaches the other
/// side's labels meets it at the true distance; the minimum candidate
/// over that level is returned. A side whose frontier empties first has
/// labelled its whole component without meeting the other.
std::int32_t bidirectional_distance(const Graph& h, VertexId s, VertexId t,
                                    BidirectionalArena& arena) {
  // Side i's labelled vertices are queue[i][0, tail[i]); its frontier,
  // all at distance depth[i], is queue[i][head[i], tail[i]).
  VertexId head[2] = {0, 0};
  VertexId tail[2] = {1, 1};
  std::int32_t depth[2] = {0, 0};
  arena.queue[0][0] = s;
  arena.queue[1][0] = t;
  arena.dist[0][static_cast<std::size_t>(s)] = 0;
  arena.dist[1][static_cast<std::size_t>(t)] = 0;
  std::int32_t best = kUnreachable;
  while (best == kUnreachable && head[0] < tail[0] && head[1] < tail[1]) {
    const int side = tail[0] - head[0] <= tail[1] - head[1] ? 0 : 1;
    std::vector<std::int32_t>& dist = arena.dist[side];
    const std::vector<std::int32_t>& other = arena.dist[1 - side];
    std::vector<VertexId>& queue = arena.queue[side];
    const std::int32_t next = ++depth[side];
    const VertexId level_end = tail[side];
    for (VertexId i = head[side]; i < level_end; ++i) {
      for (const VertexId y : h.neighbors(queue[static_cast<std::size_t>(i)])) {
        const std::int32_t across = other[static_cast<std::size_t>(y)];
        if (across != -1 && (best == kUnreachable || next + across < best)) {
          best = next + across;
        }
        if (dist[static_cast<std::size_t>(y)] != -1) continue;
        dist[static_cast<std::size_t>(y)] = next;
        queue[static_cast<std::size_t>(tail[side]++)] = y;
      }
    }
    head[side] = level_end;
  }
  for (int side = 0; side < 2; ++side) {
    for (VertexId i = 0; i < tail[side]; ++i) {
      arena.dist[side][static_cast<std::size_t>(
          arena.queue[side][static_cast<std::size_t>(i)])] = -1;
    }
  }
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
  TreeArena arena(static_cast<std::size_t>(g.num_vertices()));
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    const auto cluster = members.of(c);
    if (cluster.empty()) continue;
    const VertexId center = clustering.center_of(c);
    const VertexId root =
        clustering.cluster_of(center) == c ? center : cluster.front();
    add_bfs_tree(
        g, root, static_cast<VertexId>(cluster.size()), c,
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
  TreeArena arena(n);
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
                 static_cast<VertexId>(cluster.members.size()), stamp,
                 in_cluster, arena, edges);
  }
  return finish(g, std::move(edges));
}

std::int32_t measure_stretch(const Graph& g, const Graph& spanner) {
  DSND_REQUIRE(spanner.num_vertices() == g.num_vertices(),
               "spanner must be on the same vertex set");
  BidirectionalArena arena(static_cast<std::size_t>(g.num_vertices()));
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
                                 : bidirectional_distance(spanner, u, v, arena);
      if (d == kUnreachable) return kInfiniteDiameter;
      stretch = std::max(stretch, d);
    }
  }
  return stretch;
}

}  // namespace dsnd
