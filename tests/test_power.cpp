#include "graph/power.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/traversal.hpp"

namespace dsnd {
namespace {

TEST(GraphPower, PowerOneIsIdentity) {
  const Graph g = make_gnp(50, 0.1, 3);
  EXPECT_EQ(graph_power(g, 1), g);
}

TEST(GraphPower, PathSquared) {
  const Graph g = make_path(5);
  const Graph g2 = graph_power(g, 2);
  EXPECT_TRUE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.num_edges(), 4 + 3);  // distance-1 plus distance-2 pairs
}

TEST(GraphPower, MatchesDistanceDefinition) {
  const Graph g = make_gnp(40, 0.08, 9);
  for (const std::int32_t t : {2, 3}) {
    const Graph gt = graph_power(g, t);
    const auto all = all_pairs_distances(g);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
        const std::int32_t d = all[static_cast<std::size_t>(u)]
                                  [static_cast<std::size_t>(v)];
        const bool expected = d != kUnreachable && d <= t;
        EXPECT_EQ(gt.has_edge(u, v), expected)
            << "t=" << t << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(GraphPower, LargePowerBecomesComponentCliques) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const Graph gt = graph_power(g, 10);
  EXPECT_TRUE(gt.has_edge(0, 2));
  EXPECT_TRUE(gt.has_edge(3, 4));
  EXPECT_FALSE(gt.has_edge(2, 3));  // different components stay apart
  EXPECT_FALSE(gt.has_edge(0, 5));
}

TEST(GraphPower, PreservesDisconnection) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const Graph g3 = graph_power(g, 3);
  EXPECT_EQ(connected_components(g3).count, 2);
}

TEST(GraphPower, FingerprintsPinned) {
  // Recorded from the construction that sorted the power's whole edge
  // list before scattering it into rows.
  struct Pin {
    const char* family;
    std::int32_t t;
    std::int64_t edges;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"grid", 2, 5458, 0x21f599942c51b8caULL},
      {"grid", 3, 10674, 0xb10e9a7f0b27c0c7ULL},
      {"ring-of-cliques", 2, 5375, 0x28b85a88eaeae390ULL},
      {"ring-of-cliques", 3, 11625, 0xcc68ea9ee7ae932eULL},
      {"gnp-sparse", 2, 20155, 0xf5183e14d37e4beaULL},
      {"gnp-sparse", 3, 106640, 0x0c551dcb3af03399ULL},
      {"rgg", 2, 9505, 0x013fff9628bf4efbULL},
      {"rgg", 3, 17848, 0x8f8e7a03df6b2a0fULL},
      {"kronecker", 2, 44327, 0x2a7ab9973df256beULL},
      {"kronecker", 3, 81847, 0xaeda32aaac3b4e04ULL},
      {"ba", 2, 78697, 0x508d2782e5e719b8ULL},
      {"ba", 3, 376187, 0x75c4c25f4f6f6d37ULL},
  };
  for (const Pin& pin : pins) {
    const Graph base = family_by_name(pin.family).make(1000, 3);
    const Graph g = graph_power(base, pin.t);
    EXPECT_EQ(g.num_edges(), pin.edges) << pin.family << " t=" << pin.t;
    EXPECT_EQ(g.fingerprint(), pin.fingerprint)
        << pin.family << " t=" << pin.t;
  }
}

TEST(GraphPower, RejectsZeroPower) {
  EXPECT_THROW(graph_power(make_path(3), 0), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
