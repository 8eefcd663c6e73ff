#include "graph/traversal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "floyd_warshall.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "graph/subgraph.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

/// Seeded G(n, p) graphs with n <= 64, plus a disconnected graph with an
/// isolated vertex: the bfs() kernel's oracle inputs.
std::vector<Graph> oracle_graphs() {
  std::vector<Graph> graphs;
  for (const VertexId n : {1, 9, 33, 64}) {
    for (const double p : {0.04, 0.1, 0.3}) {
      graphs.push_back(make_gnp(n, p, static_cast<std::uint64_t>(n) + 7));
    }
  }
  graphs.push_back(Graph::from_edges(
      12, {{0, 4}, {4, 8}, {8, 0}, {1, 5}, {5, 9}, {9, 10}, {2, 6}}));
  return graphs;
}

std::vector<VertexId> sorted(std::span<const VertexId> vertices) {
  std::vector<VertexId> result(vertices.begin(), vertices.end());
  std::sort(result.begin(), result.end());
  return result;
}

TEST(BfsKernel, DistancesMatchFloydWarshall) {
  for (const Graph& g : oracle_graphs()) {
    const auto d = floyd_warshall(g);
    BfsArena arena(g.num_vertices());
    for (VertexId s = 0; s < g.num_vertices(); ++s) {
      const auto& row = d[static_cast<std::size_t>(s)];
      const auto visited = bfs(g, {&s, 1}, arena);
      ASSERT_FALSE(visited.empty());
      EXPECT_EQ(visited.front(), s);
      std::vector<VertexId> reachable;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(arena.distance(v), row[static_cast<std::size_t>(v)])
            << "s=" << s << " v=" << v;
        if (row[static_cast<std::size_t>(v)] != kUnreachable) {
          reachable.push_back(v);
        }
      }
      EXPECT_EQ(sorted(visited), reachable);
      for (std::size_t i = 1; i < visited.size(); ++i) {
        EXPECT_LE(arena.distance(visited[i - 1]), arena.distance(visited[i]));
      }
      arena.reset();
      EXPECT_TRUE(arena.order().empty());
      for (const std::int32_t x : arena.distances()) {
        EXPECT_EQ(x, kUnreachable);
      }
    }
  }
}

TEST(BfsKernel, DepthCapVisitsExactlyTheBall) {
  for (const Graph& g : oracle_graphs()) {
    const auto d = floyd_warshall(g);
    BfsArena arena(g.num_vertices());
    for (VertexId s = 0; s < g.num_vertices(); s += 3) {
      const auto& row = d[static_cast<std::size_t>(s)];
      for (const std::int32_t cap : {0, 1, 2, 3}) {
        const auto visited = bfs(g, {&s, 1}, arena, AdmitAll{}, cap);
        std::vector<VertexId> ball;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const std::int32_t dv = row[static_cast<std::size_t>(v)];
          if (dv != kUnreachable && dv <= cap) ball.push_back(v);
        }
        EXPECT_EQ(sorted(visited), ball) << "s=" << s << " cap=" << cap;
        for (const VertexId v : visited) {
          EXPECT_EQ(arena.distance(v), row[static_cast<std::size_t>(v)]);
        }
        arena.reset();
      }
    }
  }
}

TEST(BfsKernel, AdmitFilterMatchesInducedSubgraph) {
  std::uint64_t seed = 1;
  for (const Graph& g : oracle_graphs()) {
    Xoshiro256ss rng(++seed);
    std::vector<char> admitted(static_cast<std::size_t>(g.num_vertices()));
    std::vector<VertexId> kept;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      admitted[static_cast<std::size_t>(v)] = uniform_below(rng, 3) != 0;
      if (admitted[static_cast<std::size_t>(v)]) kept.push_back(v);
    }
    const InducedSubgraph sub = induced_subgraph(g, kept);
    const auto d = floyd_warshall(sub.graph);
    const auto admit = [&admitted](VertexId v) {
      return admitted[static_cast<std::size_t>(v)] != 0;
    };
    BfsArena arena(g.num_vertices());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      bfs(g, {&kept[i], 1}, arena, admit);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!admit(v)) EXPECT_EQ(arena.distance(v), kUnreachable);
      }
      for (std::size_t j = 0; j < kept.size(); ++j) {
        EXPECT_EQ(arena.distance(kept[j]), d[i][j])
            << "s=" << kept[i] << " v=" << kept[j];
      }
      arena.reset();
    }
  }
}

TEST(BfsKernel, SeveralSourcesGiveTheNearestSourceDistance) {
  for (const Graph& g : oracle_graphs()) {
    const auto d = floyd_warshall(g);
    const VertexId n = g.num_vertices();
    // Repeated and unordered sources are fine: a visited source is skipped.
    const std::vector<VertexId> sources = {n - 1, n / 2, 0, n / 2};
    BfsArena arena(n);
    const auto visited = bfs(g, sources, arena);
    for (VertexId v = 0; v < n; ++v) {
      std::int32_t nearest = kUnreachable;
      for (const VertexId s : sources) {
        const std::int32_t ds =
            d[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)];
        if (ds != kUnreachable && (nearest == kUnreachable || ds < nearest)) {
          nearest = ds;
        }
      }
      EXPECT_EQ(arena.distance(v), nearest) << "v=" << v;
    }
    for (std::size_t i = 1; i < visited.size(); ++i) {
      EXPECT_LE(arena.distance(visited[i - 1]), arena.distance(visited[i]));
    }
  }
}

TEST(BfsKernel, AppendedSearchSkipsEarlierVisits) {
  for (const Graph& g : oracle_graphs()) {
    const VertexId n = g.num_vertices();
    BfsArena arena(n);
    const VertexId first_source = 0;
    const VertexId second_source = n - 1;
    const auto first = sorted(bfs(g, {&first_source, 1}, arena, AdmitAll{}, 1));
    const auto second_span = bfs(g, {&second_source, 1}, arena);
    const auto second = sorted(second_span);
    std::vector<VertexId> both;
    std::set_intersection(first.begin(), first.end(), second.begin(),
                          second.end(), std::back_inserter(both));
    EXPECT_TRUE(both.empty());
    EXPECT_EQ(arena.order().size(), first.size() + second.size());
    // The second search ran in G minus the first's vertices.
    std::vector<char> unvisited(static_cast<std::size_t>(n), 1);
    std::vector<VertexId> rest;
    for (const VertexId v : first) unvisited[static_cast<std::size_t>(v)] = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (unvisited[static_cast<std::size_t>(v)]) rest.push_back(v);
    }
    const InducedSubgraph sub = induced_subgraph(g, rest);
    const auto d = floyd_warshall(sub.graph);
    const auto at = std::find(rest.begin(), rest.end(), second_source);
    if (at == rest.end()) {
      EXPECT_TRUE(second.empty());
      continue;
    }
    const auto& row = d[static_cast<std::size_t>(at - rest.begin())];
    std::vector<VertexId> expected;
    for (std::size_t j = 0; j < rest.size(); ++j) {
      if (row[j] == kUnreachable) continue;
      expected.push_back(rest[j]);
      EXPECT_EQ(arena.distance(rest[j]), row[j]);
    }
    EXPECT_EQ(second, expected);
  }
}

TEST(BfsKernel, OneTreeEdgePerDiscoveryFromTheLevelAbove) {
  for (const Graph& g : oracle_graphs()) {
    BfsArena arena(g.num_vertices());
    std::vector<Edge> tree;
    const VertexId source = 0;
    const auto visited =
        bfs(g, {&source, 1}, arena, AdmitAll{}, kNoDepthLimit,
            [&tree](VertexId u, VertexId w) { tree.push_back({u, w}); });
    ASSERT_EQ(tree.size() + 1, visited.size());
    std::vector<VertexId> discovered;
    for (const Edge& e : tree) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      EXPECT_EQ(arena.distance(e.u) + 1, arena.distance(e.v));
      discovered.push_back(e.v);
    }
    // Discoveries arrive in visit order, after the source.
    EXPECT_TRUE(std::equal(discovered.begin(), discovered.end(),
                           visited.begin() + 1));
  }
}

TEST(BfsLayout, RootsAscendingAndFifoWithinAComponent) {
  // Components {0, 3, 5, 6, 7}, {1, 4} and {2}. From 0 the rows are
  // visited in order 3, 5, so 3's child 7 precedes 5's child 6.
  const Graph g =
      Graph::from_edges(8, {{0, 5}, {0, 3}, {3, 7}, {5, 6}, {1, 4}});
  const Permutation layout = bfs_layout(g);
  EXPECT_EQ(layout.to_old, (std::vector<VertexId>{0, 3, 5, 7, 6, 1, 4, 2}));
  EXPECT_EQ(layout.to_new, (std::vector<VertexId>{0, 5, 7, 1, 6, 2, 4, 3}));
}

TEST(Bfs, DistancesOnPath) {
  const Graph g = make_path(5);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[static_cast<std::size_t>(v)], v);
  }
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, FilteredRespectsAliveMask) {
  // Path 0-1-2-3-4 with vertex 2 removed: 3 and 4 become unreachable.
  const Graph g = make_path(5);
  std::vector<char> alive = {1, 1, 0, 1, 1};
  const auto dist = bfs_distances_filtered(g, 0, alive);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, FilteredRequiresAliveSource) {
  const Graph g = make_path(3);
  std::vector<char> alive = {0, 1, 1};
  EXPECT_THROW(bfs_distances_filtered(g, 0, alive), std::invalid_argument);
}

TEST(Bfs, MultiSourceNearestDistance) {
  const Graph g = make_path(7);
  const VertexId sources[] = {0, 6};
  const auto dist = multi_source_bfs(g, sources);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
}

TEST(ShortestPath, EndpointsAndLength) {
  const Graph g = make_grid2d(3, 3);
  const auto path = shortest_path(g, 0, 8);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 8);
  EXPECT_EQ(path.size(), 5u);  // distance 4
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i - 1], path[i]));
  }
}

TEST(ShortestPath, DisconnectedIsEmpty) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(shortest_path(g, 0, 3).empty());
}

TEST(ShortestPath, SelfIsSingleton) {
  const Graph g = make_path(3);
  const auto path = shortest_path(g, 1, 1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1);
}

TEST(Components, CountsAndLabels) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 3);
  EXPECT_EQ(comps.component_of[0], comps.component_of[2]);
  EXPECT_NE(comps.component_of[0], comps.component_of[3]);
  EXPECT_NE(comps.component_of[3], comps.component_of[5]);
  const auto groups = comps.groups();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].size() + groups[1].size() + groups[2].size(), 6u);
}

TEST(Components, ConnectedGraph) {
  EXPECT_TRUE(is_connected(make_cycle(10)));
  EXPECT_FALSE(is_connected(Graph::from_edges(3, {{0, 1}})));
  EXPECT_TRUE(is_connected(Graph()));          // vacuous
  EXPECT_TRUE(is_connected(make_path(1)));
}

TEST(Eccentricity, CenterVsLeafOfPath) {
  const Graph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 4), 4);
  EXPECT_EQ(eccentricity(g, 0), 8);
}

TEST(Diameter, KnownGraphs) {
  EXPECT_EQ(exact_diameter(make_path(10)), 9);
  EXPECT_EQ(exact_diameter(make_cycle(10)), 5);
  EXPECT_EQ(exact_diameter(make_complete(5)), 1);
  EXPECT_EQ(exact_diameter(make_star(9)), 2);
}

TEST(Diameter, TwoSweepExactOnTrees) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    const Graph g = make_random_tree(80, seed);
    EXPECT_EQ(two_sweep_diameter_lower_bound(g), exact_diameter(g));
  }
}

TEST(Diameter, TwoSweepIsLowerBound) {
  for (std::uint64_t seed : {2ULL, 4ULL}) {
    const Graph g = make_gnp(120, 0.05, seed);
    EXPECT_LE(two_sweep_diameter_lower_bound(g), exact_diameter(g));
  }
}

TEST(AllPairs, MatchesSingleSource) {
  const Graph g = make_grid2d(4, 4);
  const auto all = all_pairs_distances(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(all[static_cast<std::size_t>(v)], bfs_distances(g, v));
  }
}

TEST(AllPairs, SymmetricDistances) {
  const Graph g = make_gnp(60, 0.1, 21);
  const auto all = all_pairs_distances(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(all[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)],
                all[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]);
    }
  }
}

}  // namespace
}  // namespace dsnd
