#include "apps/spanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <string>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"

namespace dsnd {
namespace {

// --- Oracles: the straightforward constructions the library replaced. ---

/// The all-source stretch loop: one full BFS in H from every vertex.
std::int32_t reference_stretch(const Graph& g, const Graph& h) {
  std::int32_t stretch = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) continue;
    const auto dist = bfs_distances(h, v);
    for (VertexId w : g.neighbors(v)) {
      if (w < v) continue;
      const std::int32_t d = dist[static_cast<std::size_t>(w)];
      if (d == kUnreachable) return kInfiniteDiameter;
      stretch = std::max(stretch, d);
    }
  }
  return stretch;
}

/// BFS tree of a copied induced subgraph, rooted at the center when it
/// is a member and at the smallest member otherwise.
void reference_add_bfs_tree(const Graph& g, std::span<const VertexId> members,
                            VertexId center, std::set<Edge>& edges) {
  const InducedSubgraph sub = induced_subgraph(g, members);
  VertexId root = 0;
  for (VertexId v = 0; v < sub.graph.num_vertices(); ++v) {
    if (sub.parent_of(v) == center) root = v;
  }
  std::vector<char> seen(static_cast<std::size_t>(sub.graph.num_vertices()),
                         0);
  std::queue<VertexId> frontier;
  seen[static_cast<std::size_t>(root)] = 1;
  frontier.push(root);
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (VertexId w : sub.graph.neighbors(u)) {
      if (seen[static_cast<std::size_t>(w)]) continue;
      seen[static_cast<std::size_t>(w)] = 1;
      const VertexId pu = sub.parent_of(u);
      const VertexId pw = sub.parent_of(w);
      edges.insert({std::min(pu, pw), std::max(pu, pw)});
      frontier.push(w);
    }
  }
}

Graph reference_spanner_by_decomposition(const Graph& g,
                                         const Clustering& clustering) {
  std::set<Edge> edges;
  const ClusterMembers members = clustering.members_csr();
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    reference_add_bfs_tree(g, members.of(c), clustering.center_of(c), edges);
  }
  std::set<std::pair<ClusterId, ClusterId>> connected_pairs;
  g.for_each_edge([&](VertexId u, VertexId v) {
    ClusterId cu = clustering.cluster_of(u);
    ClusterId cv = clustering.cluster_of(v);
    if (cu == cv) return;
    if (cu > cv) std::swap(cu, cv);
    if (connected_pairs.insert({cu, cv}).second) edges.insert({u, v});
  });
  return Graph::from_edges(g.num_vertices(),
                           std::vector<Edge>(edges.begin(), edges.end()));
}

Graph reference_spanner_from_cover(const Graph& g,
                                   const NeighborhoodCover& cover) {
  std::set<Edge> edges;
  for (const CoverCluster& cluster : cover.clusters) {
    reference_add_bfs_tree(g, cluster.members, cluster.center, edges);
  }
  return Graph::from_edges(g.num_vertices(),
                           std::vector<Edge>(edges.begin(), edges.end()));
}

constexpr const char* kOracleFamilies[] = {
    "grid", "gnp-sparse", "cycle", "small-world",
    "rgg",  "hyperbolic", "ba",    "kronecker"};

DecompositionRun decompose(const Graph& g, std::int32_t k,
                           std::uint64_t seed) {
  return run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
}

TEST(MeasureStretch, IdentityAndTree) {
  const Graph g = make_cycle(8);
  EXPECT_EQ(measure_stretch(g, g), 1);
  // Spanning tree of the cycle (drop one edge): stretch = n - 1.
  const Graph tree = Graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  EXPECT_EQ(measure_stretch(g, tree), 7);
}

TEST(MeasureStretch, DisconnectedIsInfinite) {
  const Graph g = make_path(3);
  const Graph broken = Graph::from_edges(3, {{0, 1}});
  EXPECT_EQ(measure_stretch(g, broken), kInfiniteDiameter);
}

/// The G-edges whose index in g.edges() is not 2 mod 3, plus `extra`.
Graph two_thirds_of(const Graph& g, std::vector<Edge> extra = {}) {
  const std::vector<Edge> all = g.edges();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 3 != 2) extra.push_back(all[i]);
  }
  return Graph::from_edges(g.num_vertices(), std::move(extra),
                           /*normalize=*/true);
}

/// A BFS forest of g: H containing it keeps every component connected,
/// so the thinned graph's stretches become long but finite.
std::vector<Edge> bfs_forest(const Graph& g) {
  std::vector<Edge> forest;
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    seen[static_cast<std::size_t>(root)] = 1;
    std::queue<VertexId> frontier;
    frontier.push(root);
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      for (const VertexId w : g.neighbors(u)) {
        if (seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = 1;
        forest.push_back({std::min(u, w), std::max(u, w)});
        frontier.push(w);
      }
    }
  }
  return forest;
}

/// Edges (v, v + n/2) that g lacks: shortcuts H has and G does not.
std::vector<Edge> foreign_edges(const Graph& g) {
  std::vector<Edge> foreign;
  const VertexId n = g.num_vertices();
  for (VertexId v = 0; v + n / 2 < n; v += 3) {
    if (n / 2 > 0 && !g.has_edge(v, v + n / 2)) {
      foreign.push_back({v, v + n / 2});
    }
  }
  return foreign;
}

TEST(MeasureStretch, MatchesAllSourceOracleOnThinnedForeignAndFullInputs) {
  bool saw_infinite = false;
  bool saw_long = false;
  for (const char* family : kOracleFamilies) {
    for (const VertexId n : {200, 1000}) {
      const Graph g = family_by_name(family).make(n, 1);
      SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n));
      std::vector<Edge> forest = bfs_forest(g);
      std::vector<Edge> forest_and_foreign = forest;
      for (const Edge& e : foreign_edges(g)) forest_and_foreign.push_back(e);
      const Graph inputs[] = {two_thirds_of(g), two_thirds_of(g, forest),
                              two_thirds_of(g, forest_and_foreign), g};
      for (const Graph& h : inputs) {
        const std::int32_t expected = reference_stretch(g, h);
        EXPECT_EQ(measure_stretch(g, h), expected);
        saw_infinite = saw_infinite || expected == kInfiniteDiameter;
        saw_long = saw_long || expected >= 6;
      }
      EXPECT_EQ(measure_stretch(g, g), g.num_edges() > 0 ? 1 : 0);
    }
  }
  EXPECT_TRUE(saw_infinite);
  EXPECT_TRUE(saw_long);
}

TEST(MeasureStretch, EdgelessGraphHasStretchZero) {
  const Graph g = Graph::from_edges(6, {});
  EXPECT_EQ(measure_stretch(g, g), 0);
  EXPECT_EQ(measure_stretch(g, make_path(6)), 0);
}

TEST(SpannerOracle, MatchesInducedSubgraphTreesAndAllSourceStretch) {
  for (const char* family : kOracleFamilies) {
    for (const VertexId n : {200, 3000}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Graph g = family_by_name(family).make(n, seed);
        for (const std::int32_t k : {0, 3}) {
          SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k));
          const DecompositionRun run = decompose(g, k, seed);
          const Clustering& clustering = run.clustering();
          const SpannerResult spanner =
              spanner_by_decomposition(g, clustering);
          EXPECT_EQ(spanner.spanner,
                    reference_spanner_by_decomposition(g, clustering));
          EXPECT_EQ(spanner.stretch, reference_stretch(g, spanner.spanner));

          // Covers only at the small size: expanding ~2,800 clusters and
          // copying each one's induced subgraph costs ~0.5 s per case at
          // n = 3000.
          if (n > 200) continue;
          NeighborhoodCover cover;
          cover.radius = 1;
          cover.clusters = expand_clusters_to_cover(g, clustering, 1);
          const SpannerResult from_cover = spanner_from_cover(g, cover);
          EXPECT_EQ(from_cover.spanner,
                    reference_spanner_from_cover(g, cover));
          EXPECT_EQ(from_cover.stretch,
                    reference_stretch(g, from_cover.spanner));
        }
      }
    }
  }
}

TEST(SpannerByDecomposition, StretchWithinBound) {
  const std::int32_t k = 4;
  for (const char* family : {"grid", "gnp-sparse", "cycle", "small-world"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const Graph g = family_by_name(family).make(120, seed);
      const DecompositionRun run = decompose(g, k, seed);
      if (run.carve.radius_overflow) continue;
      const SpannerResult spanner =
          spanner_by_decomposition(g, run.clustering());
      ASSERT_NE(spanner.stretch, kInfiniteDiameter)
          << family << " seed=" << seed;
      // Stretch <= 4k - 3: tree detour in both endpoint clusters plus
      // the connecting edge.
      EXPECT_LE(spanner.stretch, 4 * k - 3) << family << " seed=" << seed;
      EXPECT_LE(spanner.edges, g.num_edges());
    }
  }
}

TEST(SpannerByDecomposition, SparsifiesDenseGraphs) {
  const Graph g = make_gnp(128, 0.3, 7);
  const DecompositionRun run = decompose(g, 4, 7);
  const SpannerResult spanner = spanner_by_decomposition(g, run.clustering());
  EXPECT_LT(spanner.edges, g.num_edges() / 2);
}

TEST(SpannerFromCover, StretchBoundedByClusterDiameter) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = make_gnp(100, 0.06, seed);
    CoverOptions options;
    options.radius = 1;
    options.k = 3;
    options.seed = seed;
    const NeighborhoodCover cover = build_neighborhood_cover(g, options);
    if (cover.base.carve.radius_overflow) continue;
    const SpannerResult spanner = spanner_from_cover(g, cover);
    ASSERT_NE(spanner.stretch, kInfiniteDiameter);
    // Every edge lies inside some cover cluster whose strong diameter is
    // at most (2W+1)(2k-2)+2W = 3*(2k-2)+2.
    EXPECT_LE(spanner.stretch, 3 * (2 * 3 - 2) + 2);
    // Edge budget: at most sum of (cluster size - 1) <= chi * n.
    EXPECT_LT(spanner.edges,
              static_cast<std::int64_t>(cover.num_colors) *
                  g.num_vertices());
  }
}

TEST(SpannerFromCover, DenseGraphSparsification) {
  const Graph g = make_gnp(96, 0.4, 11);
  CoverOptions options;
  options.radius = 1;
  options.k = 3;
  options.seed = 11;
  const NeighborhoodCover cover = build_neighborhood_cover(g, options);
  const SpannerResult spanner = spanner_from_cover(g, cover);
  EXPECT_LT(spanner.edges, g.num_edges());
  EXPECT_NE(spanner.stretch, kInfiniteDiameter);
}

TEST(Spanner, PreservesConnectivity) {
  const Graph g = make_barbell(10, 4);
  const DecompositionRun run = decompose(g, 3, 5);
  const SpannerResult spanner = spanner_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_connected(spanner.spanner));
}

TEST(Spanner, EdgelessGraph) {
  const Graph g = Graph::from_edges(5, {});
  const DecompositionRun run = decompose(g, 2, 1);
  const SpannerResult spanner = spanner_by_decomposition(g, run.clustering());
  EXPECT_EQ(spanner.edges, 0);
  EXPECT_EQ(spanner.stretch, 0);
}

}  // namespace
}  // namespace dsnd
