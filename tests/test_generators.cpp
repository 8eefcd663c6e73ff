#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/properties.hpp"
#include "graph/traversal.hpp"

namespace dsnd {
namespace {

TEST(Generators, Path) {
  const Graph g = make_path(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(exact_diameter(g), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(Generators, PathSingleVertex) {
  const Graph g = make_path(1);
  EXPECT_EQ(g.num_vertices(), 1);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Generators, Cycle) {
  const Graph g = make_cycle(6);
  EXPECT_EQ(g.num_edges(), 6);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_EQ(exact_diameter(g), 3);
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(Generators, Grid2d) {
  const Graph g = make_grid2d(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(exact_diameter(g), 2 + 3);      // Manhattan corner-to-corner
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, Torus2d) {
  const Graph g = make_torus2d(4, 4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(exact_diameter(g), 4);
}

TEST(Generators, Grid3d) {
  const Graph g = make_grid3d(2, 3, 4);
  EXPECT_EQ(g.num_vertices(), 24);
  EXPECT_EQ(exact_diameter(g), 1 + 2 + 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Complete) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(exact_diameter(g), 1);
  EXPECT_EQ(max_degree(g), 5);
}

TEST(Generators, Star) {
  const Graph g = make_star(7);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.degree(0), 6);
  EXPECT_EQ(exact_diameter(g), 2);
}

TEST(Generators, CompleteBipartite) {
  const Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_EQ(triangle_count(g), 0);
}

TEST(Generators, BalancedTree) {
  const Graph g = make_balanced_tree(2, 3);  // 1+2+4+8 = 15 vertices
  EXPECT_EQ(g.num_vertices(), 15);
  EXPECT_EQ(g.num_edges(), 14);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 6);
}

TEST(Generators, Hypercube) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(exact_diameter(g), 4);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, RingOfCliques) {
  const Graph g = make_ring_of_cliques(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  // 4 cliques of C(5,2)=10 edges plus 4 connecting edges.
  EXPECT_EQ(g.num_edges(), 44);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Barbell) {
  const Graph g = make_barbell(4, 3);
  EXPECT_EQ(g.num_vertices(), 4 + 4 + 2);
  EXPECT_TRUE(is_connected(g));
  // Diameter: across both cliques and the path.
  EXPECT_EQ(exact_diameter(g), 1 + 3 + 1);
}

TEST(Generators, Lollipop) {
  const Graph g = make_lollipop(4, 3);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(exact_diameter(g), 4);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  const VertexId n = 400;
  const double p = 0.05;
  const Graph g = make_gnp(n, p, 7);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(Generators, GnpExtremes) {
  EXPECT_EQ(make_gnp(10, 0.0, 1).num_edges(), 0);
  EXPECT_EQ(make_gnp(10, 1.0, 1).num_edges(), 45);
}

TEST(Generators, GnpDeterministicInSeed) {
  EXPECT_EQ(make_gnp(100, 0.1, 5), make_gnp(100, 0.1, 5));
  EXPECT_NE(make_gnp(100, 0.1, 5), make_gnp(100, 0.1, 6));
}

TEST(Generators, GnmExactEdgeCount) {
  const Graph g = make_gnm(50, 200, 3);
  EXPECT_EQ(g.num_vertices(), 50);
  EXPECT_EQ(g.num_edges(), 200);
}

TEST(Generators, GnmRejectsTooManyEdges) {
  EXPECT_THROW(make_gnm(4, 7, 1), std::invalid_argument);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = make_random_tree(64, seed);
    EXPECT_EQ(g.num_edges(), 63);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomRegularDegrees) {
  const Graph g = make_random_regular(50, 4, 11);
  EXPECT_EQ(g.num_vertices(), 50);
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  EXPECT_THROW(make_random_regular(5, 3, 1), std::invalid_argument);
}

TEST(Generators, WattsStrogatzShape) {
  const Graph g = make_watts_strogatz(100, 3, 0.1, 13);
  EXPECT_EQ(g.num_vertices(), 100);
  // Rewiring preserves the edge count (300) up to saturated fallbacks.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 300.0, 5.0);
}

TEST(Generators, WattsStrogatzZeroBetaIsLattice) {
  const Graph g = make_watts_strogatz(20, 2, 0.0, 1);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, BarabasiAlbertShape) {
  const Graph g = make_barabasi_albert(200, 3, 17);
  EXPECT_EQ(g.num_vertices(), 200);
  EXPECT_TRUE(is_connected(g));
  // Preferential attachment yields a heavy hub.
  EXPECT_GT(max_degree(g), 10);
}

TEST(Generators, RggShape) {
  const Graph g = make_rgg(400, 0.12, 9);
  EXPECT_EQ(g.num_vertices(), 400);
  // Expected average degree ~ n*pi*r^2 ~ 18 (less near the boundary);
  // a generous band guards against bucketing bugs in either direction.
  const double avg_degree =
      2.0 * static_cast<double>(g.num_edges()) / 400.0;
  EXPECT_GT(avg_degree, 6.0);
  EXPECT_LT(avg_degree, 36.0);
  // Deterministic in the seed.
  EXPECT_EQ(g, make_rgg(400, 0.12, 9));
  EXPECT_NE(g.num_edges(), make_rgg(400, 0.12, 10).num_edges());
  EXPECT_THROW(make_rgg(10, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(make_rgg(10, 1.5, 1), std::invalid_argument);
}

// --- Chunk-count invariance (the KaGen-style stream-splitting contract):
// the parallel generators derive one RNG stream per unit of work (G(n,p)
// row, RGG point), so the graph is a function of (parameters, seed)
// alone — never of how many chunks/threads generated it.

TEST(Generators, GnpIndependentOfChunkCount) {
  const Graph reference = make_gnp(300, 0.04, 9, 1);
  for (const unsigned threads : {2u, 4u, 7u, 0u}) {
    EXPECT_EQ(make_gnp(300, 0.04, 9, threads), reference)
        << "threads=" << threads;
  }
}

TEST(Generators, RggIndependentOfChunkCount) {
  const GeometricGraph reference = make_rgg_geometric(400, 0.08, 3, 1);
  for (const unsigned threads : {2u, 5u, 7u}) {
    const GeometricGraph parallel = make_rgg_geometric(400, 0.08, 3, threads);
    EXPECT_EQ(parallel.graph, reference.graph) << "threads=" << threads;
    EXPECT_EQ(parallel.x, reference.x) << "threads=" << threads;
    EXPECT_EQ(parallel.y, reference.y) << "threads=" << threads;
  }
}

TEST(Generators, RggFingerprintsPinned) {
  // Fingerprints recorded from an edge-list construction (each pair found
  // once, from its lower point, then scattered into rows): the rows built
  // in cell order must be that graph at every thread count. Covers one
  // point, one cell (radius > 0.5), four cells (radius 0.5), a complete
  // graph (radius 1) and the average-degree-8 radius the benchmarks use.
  struct Pin {
    VertexId n;
    double radius;
    std::uint64_t seed;
    std::int64_t edges;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {1, 0.5, 1, 0, 0xe4162fe96a516f08ULL},
      {2, 1.0, 3, 1, 0x78444275bf3e4164ULL},
      {50, 0.6, 7, 674, 0x0620069c0b6329cdULL},
      {64, 1.0, 4, 1981, 0xd456a35d18f8e91dULL},
      {300, 0.5, 2, 20636, 0x0aa55ccc006ca325ULL},
      {2000, 0.05, 11, 15195, 0xa2974eac7330b5ceULL},
      {5000, 0.02, 5, 15371, 0xcf143bcc40b86b35ULL},
      {20000, 0.011283791670955126, 42, 79491, 0xbe1556d42463cf87ULL},
      {100000, 0.0050462650440403203, 9, 397913, 0x30fbffe132725324ULL},
  };
  for (const Pin& pin : pins) {
    for (const unsigned threads : {1u, 3u, 4u}) {
      const Graph g = make_rgg(pin.n, pin.radius, pin.seed, threads);
      EXPECT_EQ(g.num_edges(), pin.edges)
          << "n=" << pin.n << " threads=" << threads;
      EXPECT_EQ(g.fingerprint(), pin.fingerprint)
          << "n=" << pin.n << " threads=" << threads;
    }
  }
}

TEST(Generators, CycleIndependentOfChunkCount) {
  EXPECT_EQ(make_cycle(101, 4), make_cycle(101, 1));
  EXPECT_EQ(make_cycle(3, 8), make_cycle(3));
}

TEST(Graphs, FromCsrAdoptsAndValidates) {
  // Path 0-1-2 as a prebuilt CSR.
  const Graph g = Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  // Rejections: non-monotone offsets, out-of-range / duplicate / unsorted
  // rows, self-loops, bad terminator.
  EXPECT_THROW(Graph::from_csr({0, 2, 1, 4}, {1, 0, 2, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 5}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 4}, {1, 2, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 4}, {0, 0, 2, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 1, 3, 5}, {1, 0, 2, 1}),
               std::invalid_argument);
}

TEST(Generators, StandardFamiliesProduceReasonableSizes) {
  for (const GraphFamily& family : standard_families()) {
    const Graph g = family.make(128, 42);
    EXPECT_GE(g.num_vertices(), 32) << family.name;
    EXPECT_LE(g.num_vertices(), 512) << family.name;
  }
}

TEST(Generators, StandardFamiliesBuildAtTinySizes) {
  for (const GraphFamily& family : standard_families()) {
    for (VertexId n = 1; n <= 8; ++n) {
      EXPECT_NO_THROW(family.make(n, 3)) << family.name << " n=" << n;
    }
  }
}

TEST(Generators, FamilyLookup) {
  EXPECT_EQ(family_by_name("grid").name, "grid");
  EXPECT_THROW(family_by_name("nonexistent"), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
