#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

TEST(Generators, FamilyFingerprintsPinned) {
  // Recorded from the edge-list construction that sorted each edge list
  // before scattering it; every family must keep its graph exactly.
  struct Pin {
    const char* family;
    VertexId n;
    std::uint64_t seed;
    std::int64_t edges;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"path", 7, 1, 6, 0x28314ab8e045826fULL},
      {"path", 7, 2, 6, 0x28314ab8e045826fULL},
      {"path", 300, 1, 299, 0xf0a271e1458eef22ULL},
      {"path", 300, 2, 299, 0xf0a271e1458eef22ULL},
      {"path", 5000, 1, 4999, 0x6d507b959d1f1a14ULL},
      {"path", 5000, 2, 4999, 0x6d507b959d1f1a14ULL},
      {"cycle", 7, 1, 7, 0x7f84204cfdf1f6f1ULL},
      {"cycle", 7, 2, 7, 0x7f84204cfdf1f6f1ULL},
      {"cycle", 300, 1, 300, 0x4926b5532e473f60ULL},
      {"cycle", 300, 2, 300, 0x4926b5532e473f60ULL},
      {"cycle", 5000, 1, 5000, 0x5e2c3eb4c33d18c4ULL},
      {"cycle", 5000, 2, 5000, 0x5e2c3eb4c33d18c4ULL},
      {"grid", 7, 1, 4, 0x29b2e331d4b5a76aULL},
      {"grid", 7, 2, 4, 0x29b2e331d4b5a76aULL},
      {"grid", 300, 1, 544, 0x35032704d2c58c65ULL},
      {"grid", 300, 2, 544, 0x35032704d2c58c65ULL},
      {"grid", 5000, 1, 9660, 0x6095a2edba40fa20ULL},
      {"grid", 5000, 2, 9660, 0x6095a2edba40fa20ULL},
      {"balanced-tree", 7, 1, 6, 0x38d19214abf188a6ULL},
      {"balanced-tree", 7, 2, 6, 0x38d19214abf188a6ULL},
      {"balanced-tree", 300, 1, 254, 0x2b1f16deb54c1963ULL},
      {"balanced-tree", 300, 2, 254, 0x2b1f16deb54c1963ULL},
      {"balanced-tree", 5000, 1, 4094, 0x6b16630fab63e5eeULL},
      {"balanced-tree", 5000, 2, 4094, 0x6b16630fab63e5eeULL},
      {"random-tree", 7, 1, 6, 0xb41e426df349c46aULL},
      {"random-tree", 7, 2, 6, 0xd99531de66920410ULL},
      {"random-tree", 300, 1, 299, 0x88470f2ddec89118ULL},
      {"random-tree", 300, 2, 299, 0x5acbf959c18cd8cbULL},
      {"random-tree", 5000, 1, 4999, 0x8b0f84f1917ce1b7ULL},
      {"random-tree", 5000, 2, 4999, 0x281909cd9db9a794ULL},
      {"gnp-sparse", 7, 1, 21, 0x4b6709079e5824a7ULL},
      {"gnp-sparse", 7, 2, 21, 0x4b6709079e5824a7ULL},
      {"gnp-sparse", 300, 1, 918, 0xa1f22bba5349a560ULL},
      {"gnp-sparse", 300, 2, 890, 0xeab7a0b8ebcaa67fULL},
      {"gnp-sparse", 5000, 1, 14813, 0xdc4afaec5eaaabb3ULL},
      {"gnp-sparse", 5000, 2, 15126, 0xb16c9caa05cf63beULL},
      {"gnp-dense", 7, 1, 6, 0x15cebf3dac45da82ULL},
      {"gnp-dense", 7, 2, 1, 0x7296d73b791e8e4bULL},
      {"gnp-dense", 300, 1, 5706, 0x5f8011cba668a3efULL},
      {"gnp-dense", 300, 2, 5546, 0x90985e3e7e6b1db0ULL},
      {"gnp-dense", 5000, 1, 1560960, 0x6326d98497e3dde9ULL},
      {"gnp-dense", 5000, 2, 1561474, 0xb2beb7b5e603da16ULL},
      {"random-regular", 7, 1, 16, 0x8eeb38d55aaf32feULL},
      {"random-regular", 7, 2, 16, 0xfc72cb407f074301ULL},
      {"random-regular", 300, 1, 600, 0xdb09eca5864f06bcULL},
      {"random-regular", 300, 2, 600, 0xe2c04d168105976dULL},
      {"random-regular", 5000, 1, 10000, 0xa5266bf704d2d640ULL},
      {"random-regular", 5000, 2, 10000, 0x95430514b1067d1dULL},
      {"hypercube", 7, 1, 4, 0x29b2e331d4b5a76aULL},
      {"hypercube", 7, 2, 4, 0x29b2e331d4b5a76aULL},
      {"hypercube", 300, 1, 1024, 0xc971a9471e20faa9ULL},
      {"hypercube", 300, 2, 1024, 0xc971a9471e20faa9ULL},
      {"hypercube", 5000, 1, 24576, 0x14f120c60c7feca7ULL},
      {"hypercube", 5000, 2, 24576, 0x14f120c60c7feca7ULL},
      {"ring-of-cliques", 7, 1, 87, 0xd3f404241a28c95cULL},
      {"ring-of-cliques", 7, 2, 87, 0xd3f404241a28c95cULL},
      {"ring-of-cliques", 300, 1, 1073, 0x7313b2f3b35cf1ddULL},
      {"ring-of-cliques", 300, 2, 1073, 0x7313b2f3b35cf1ddULL},
      {"ring-of-cliques", 5000, 1, 18125, 0x70f20cb844645755ULL},
      {"ring-of-cliques", 5000, 2, 18125, 0x70f20cb844645755ULL},
      {"small-world", 7, 1, 24, 0xa9ae885b919e374bULL},
      {"small-world", 7, 2, 24, 0x0ce8bccbc84fb87aULL},
      {"small-world", 300, 1, 900, 0x8aa14455dd6384a7ULL},
      {"small-world", 300, 2, 900, 0xd5065a4bdb19b736ULL},
      {"small-world", 5000, 1, 15000, 0xe24f60e4f14555f3ULL},
      {"small-world", 5000, 2, 15000, 0xfe6e0a955c6c13d6ULL},
      {"rgg", 7, 1, 13, 0xb430c4eae3066305ULL},
      {"rgg", 7, 2, 15, 0xa706749d6ba02c0aULL},
      {"rgg", 300, 1, 1102, 0x2ba089fbe462d2f6ULL},
      {"rgg", 300, 2, 1035, 0xbadddc0dfeddfbceULL},
      {"rgg", 5000, 1, 19484, 0xa74ff84bffffd0fdULL},
      {"rgg", 5000, 2, 19802, 0xbe2efab10ea547e1ULL},
      {"hyperbolic", 7, 1, 163, 0x11bf4829021cb68dULL},
      {"hyperbolic", 7, 2, 179, 0xc668a44e50dce2c1ULL},
      {"hyperbolic", 300, 1, 815, 0x5a6d185df036c9d1ULL},
      {"hyperbolic", 300, 2, 903, 0x805d81f7e979ac50ULL},
      {"hyperbolic", 5000, 1, 19211, 0x876b12a0c1ede719ULL},
      {"hyperbolic", 5000, 2, 19158, 0xf6985385ba36c323ULL},
      {"kronecker", 7, 1, 6, 0xca8b120086767090ULL},
      {"kronecker", 7, 2, 5, 0x949fe75fa0be0a23ULL},
      {"kronecker", 300, 1, 1294, 0xf7360141154b3b78ULL},
      {"kronecker", 300, 2, 1327, 0xde3575d64dae1e0dULL},
      {"kronecker", 5000, 1, 26760, 0xc232e00c1d80d87eULL},
      {"kronecker", 5000, 2, 26751, 0xa84873de6d30c3d1ULL},
      {"ba", 7, 1, 14, 0x35f61452caea4602ULL},
      {"ba", 7, 2, 15, 0xdd12f6a68965b122ULL},
      {"ba", 300, 1, 1143, 0x2ed8baa5ec27b731ULL},
      {"ba", 300, 2, 1143, 0xbff776104e8d2491ULL},
      {"ba", 5000, 1, 19888, 0x5c9b89be65c31d36ULL},
      {"ba", 5000, 2, 19887, 0x8771509e15f03c7bULL},
  };
  for (const Pin& pin : pins) {
    const Graph g = family_by_name(pin.family).make(pin.n, pin.seed);
    EXPECT_EQ(g.num_edges(), pin.edges)
        << pin.family << " n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(g.fingerprint(), pin.fingerprint)
        << pin.family << " n=" << pin.n << " seed=" << pin.seed;
  }
}

TEST(Generators, ChunkedGeneratorFingerprintsPinned) {
  // The four generators that hand per-thread edge lists to
  // Graph::from_edge_chunks, at about 10^5 vertices, recorded from their
  // earlier per-generator scatters; 4 threads sort the rows in 4 chunks.
  struct Pin {
    const char* name;
    Graph (*make)(unsigned threads);
    std::int64_t edges;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"gnp",
       [](unsigned t) { return make_gnp(100000, 8.0 / 99999.0, 7, t); },
       400117, 0x43557ddaff90d138ULL},
      {"hyperbolic",
       [](unsigned t) { return make_hyperbolic(100000, 8.0, 2.8, 7, t); },
       394343, 0x6560d038a80dc7e0ULL},
      {"kronecker", [](unsigned t) { return make_kronecker(17, 8, 7, t); },
       971694, 0x07151cf187ffda8bULL},
      {"ba",
       [](unsigned t) { return make_barabasi_albert(100000, 4, 7, t); },
       399772, 0xad738e6ef7bb469bULL},
  };
  for (const Pin& pin : pins) {
    for (const unsigned threads : {1u, 4u}) {
      const Graph g = pin.make(threads);
      EXPECT_EQ(g.num_edges(), pin.edges)
          << pin.name << " threads=" << threads;
      EXPECT_EQ(g.fingerprint(), pin.fingerprint)
          << pin.name << " threads=" << threads;
    }
  }
}

TEST(Generators, RejectVertexCountsPastInt32) {
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  EXPECT_THROW(make_grid2d(65536, 65536), std::invalid_argument);
  EXPECT_THROW(make_torus2d(65536, 65536), std::invalid_argument);
  EXPECT_THROW(make_grid3d(2048, 2048, 1024), std::invalid_argument);
  EXPECT_THROW(make_complete_bipartite(kMax, 1), std::invalid_argument);
  EXPECT_THROW(make_ring_of_cliques(65536, 65536), std::invalid_argument);
  EXPECT_THROW(make_barbell(kMax / 2 + 1, 1), std::invalid_argument);
  EXPECT_THROW(make_lollipop(kMax, 1), std::invalid_argument);
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
