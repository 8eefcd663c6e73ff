#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/io.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, FromEdgesBasic) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, NeighborsSorted) {
  const Graph g = Graph::from_edges(5, {{3, 0}, {3, 4}, {3, 1}, {3, 2}});
  const auto row = g.neighbors(3);
  ASSERT_EQ(row.size(), 4u);
  for (std::size_t i = 1; i < row.size(); ++i) {
    EXPECT_LT(row[i - 1], row[i]);
  }
}

TEST(Graph, EdgesCanonicalOrder) {
  const Graph g = Graph::from_edges(3, {{2, 1}, {1, 0}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{1, 2}));
}

TEST(Graph, ForEachEdgeVisitsOncePerEdge) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  int count = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    EXPECT_LT(u, v);
    ++count;
  });
  EXPECT_EQ(count, 3);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}),
               std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(2, {{-1, 0}}), std::invalid_argument);
}

TEST(Graph, NormalizeDropsLoopsAndDuplicates) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {2, 2}, {1, 2}},
                                    /*normalize=*/true);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, VertexRangeChecked) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  EXPECT_THROW(g.degree(2), std::invalid_argument);
  EXPECT_THROW(g.neighbors(-1), std::invalid_argument);
  EXPECT_THROW(g.has_edge(0, 5), std::invalid_argument);
}

TEST(Graph, EqualityIsStructural) {
  const Graph a = Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Graph b = Graph::from_edges(3, {{1, 2}, {0, 1}});
  const Graph c = Graph::from_edges(3, {{0, 1}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(GraphBuilder, MergesAndIgnoresLoops) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);
  builder.add_edge(2, 2);  // ignored
  builder.add_edge(3, 2);
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), std::invalid_argument);
}

TEST(Graph, FromEdgesBuildsSortedRowsFromRandomLists) {
  // Random edge lists in both orientations, with duplicates and
  // self-loops dropped by normalize, and the same edges deduplicated
  // without it: each result's CSR must pass from_csr's row checks, hold
  // every edge in both rows, and list exactly the sorted, deduplicated
  // input.
  Xoshiro256ss rng(29);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<VertexId>(1 + uniform_below(rng, 60));
    const auto m = uniform_below(rng, 4 * static_cast<std::uint64_t>(n));
    std::vector<Edge> input;
    std::vector<Edge> expected;
    for (std::uint64_t i = 0; i < m; ++i) {
      const auto u = static_cast<VertexId>(
          uniform_below(rng, static_cast<std::uint64_t>(n)));
      const auto v = static_cast<VertexId>(
          uniform_below(rng, static_cast<std::uint64_t>(n)));
      input.push_back({u, v});
      if (u != v) expected.push_back({std::min(u, v), std::max(u, v)});
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    std::vector<Edge> simple = expected;
    for (Edge& e : simple) {
      if (uniform_below(rng, 2) == 1) std::swap(e.u, e.v);
    }
    std::shuffle(simple.begin(), simple.end(), rng);

    for (const Graph& g : {Graph::from_edges(n, input, /*normalize=*/true),
                           Graph::from_edges(n, simple)}) {
      const std::span<const std::int64_t> offsets = g.csr_offsets();
      const std::span<const VertexId> adjacency = g.csr_adjacency();
      ASSERT_NO_THROW(Graph::from_csr({offsets.begin(), offsets.end()},
                                      {adjacency.begin(), adjacency.end()}))
          << "trial " << trial;
      ASSERT_EQ(g.edges(), expected) << "trial " << trial;
      for (const Edge& e : expected) {
        ASSERT_TRUE(g.has_edge(e.v, e.u)) << "trial " << trial;
      }
    }
  }
}

/// CSR arrays as one vector per row.
std::vector<std::vector<VertexId>> rows_of(
    std::span<const std::int64_t> offsets,
    std::span<const VertexId> adjacency) {
  std::vector<std::vector<VertexId>> rows;
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    rows.emplace_back(adjacency.begin() + offsets[v],
                      adjacency.begin() + offsets[v + 1]);
  }
  return rows;
}

/// Whether building from the chunks throws std::invalid_argument whose
/// message names `reason`.
bool rejected_for(VertexId n, const std::vector<std::vector<Edge>>& chunks,
                  const std::string& reason) {
  try {
    Graph::from_edge_chunks(n, chunks);
  } catch (const std::invalid_argument& error) {
    return std::string(error.what()).find(reason) != std::string::npos;
  }
  return false;
}

TEST(Graph, EdgeKernelMatchesNaiveRows) {
  // The edge-list kernel against rows built one std::vector per vertex,
  // on random lists with self-loops and repeats split at random into 1
  // to 7 chunks: the raw rows keep each self-loop once and every repeat,
  // as the edge-list and DIMACS parsers must; normalized rows keep
  // neither; and without normalize a repeat is reported before a
  // self-loop, wherever the two sit.
  Xoshiro256ss rng(31);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto n = static_cast<VertexId>(1 + uniform_below(rng, 50));
    const auto m = uniform_below(rng, 4 * static_cast<std::uint64_t>(n));
    const auto chunk_count = 1 + uniform_below(rng, 7);
    std::vector<std::vector<Edge>> chunks(chunk_count);
    std::vector<Edge> edges;
    std::vector<std::vector<VertexId>> raw(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < m; ++i) {
      const auto u = static_cast<VertexId>(
          uniform_below(rng, static_cast<std::uint64_t>(n)));
      const auto v = static_cast<VertexId>(
          uniform_below(rng, static_cast<std::uint64_t>(n)));
      edges.push_back({u, v});
      chunks[uniform_below(rng, chunk_count)].push_back({u, v});
      raw[static_cast<std::size_t>(u)].push_back(v);
      if (u != v) raw[static_cast<std::size_t>(v)].push_back(u);
    }
    std::vector<std::vector<VertexId>> simple(raw.size());
    for (std::size_t v = 0; v < raw.size(); ++v) {
      std::sort(raw[v].begin(), raw[v].end());
      simple[v] = raw[v];
      std::erase(simple[v], static_cast<VertexId>(v));
      simple[v].erase(std::unique(simple[v].begin(), simple[v].end()),
                      simple[v].end());
    }

    std::vector<std::int64_t> offsets;
    std::vector<VertexId> adjacency;
    edge_rows(n, chunks, offsets, adjacency);
    ASSERT_EQ(rows_of(offsets, adjacency), raw) << "trial " << trial;
    const Graph g = Graph::from_edge_chunks(n, chunks, /*normalize=*/true);
    ASSERT_EQ(rows_of(g.csr_offsets(), g.csr_adjacency()), simple)
        << "trial " << trial;
    ASSERT_EQ(g, Graph::from_edges(n, edges, /*normalize=*/true))
        << "trial " << trial;

    std::ostringstream edge_list;
    std::ostringstream dimacs;
    edge_list << n << ' ' << m << '\n';
    dimacs << "p edge " << n << ' ' << m << '\n';
    for (const Edge& e : edges) {
      edge_list << e.u << ' ' << e.v << '\n';
      dimacs << "e " << e.u + 1 << ' ' << e.v + 1 << '\n';
    }
    for (const auto& [text, format] :
         {std::pair{edge_list.str(), GraphFormat::kEdgeList},
          std::pair{dimacs.str(), GraphFormat::kDimacs}}) {
      std::istringstream in(text);
      const ParsedGraph parsed = parse_graph(in, format);
      ASSERT_EQ(rows_of(parsed.offsets, parsed.adjacency), raw)
          << "trial " << trial;
    }

    // The simple graph's edges, each once in a random orientation, in
    // the same chunks: accepted as they are. A self-loop on vertex 0
    // (whose row is checked first) plus a repeat of the last edge
    // throws for the repeat; the self-loop alone throws for itself.
    for (std::vector<Edge>& chunk : chunks) chunk.clear();
    for (VertexId v = 0; v < n; ++v) {
      for (const VertexId w : simple[static_cast<std::size_t>(v)]) {
        if (v >= w) continue;
        chunks[uniform_below(rng, chunk_count)].push_back(
            uniform_below(rng, 2) == 0 ? Edge{v, w} : Edge{w, v});
      }
    }
    ASSERT_EQ(Graph::from_edge_chunks(n, chunks), g) << "trial " << trial;
    chunks.front().push_back({0, 0});
    EXPECT_TRUE(rejected_for(n, chunks, "self-loop in edge list"))
        << "trial " << trial;
    if (g.num_edges() == 0) continue;
    const Edge last = g.edges().back();
    chunks.back().push_back({last.v, last.u});
    EXPECT_TRUE(rejected_for(n, chunks, "duplicate edge in edge list"))
        << "trial " << trial;
  }
}

TEST(Graph, IsolatedVerticesHaveDegreeZero) {
  const Graph g = Graph::from_edges(5, {{0, 1}});
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_TRUE(g.neighbors(4).empty());
}

}  // namespace
}  // namespace dsnd
