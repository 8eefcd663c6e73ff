#include "decomposition/mpx.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "support/stats.hpp"

namespace dsnd {
namespace {

TEST(Mpx, CompletePartition) {
  const Graph g = make_grid2d(10, 10);
  const MpxResult result = mpx_partition(g, {.beta = 0.3, .seed = 1});
  EXPECT_TRUE(result.clustering.is_complete());
}

TEST(Mpx, ClustersAreConnected) {
  // The MPX strong-diameter property: every cluster is connected in its
  // induced subgraph (each vertex reaches its center along vertices of
  // the same cluster).
  for (const char* family :
       {"grid", "gnp-sparse", "cycle", "random-tree", "small-world"}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const Graph g = family_by_name(family).make(150, seed);
      const MpxResult result = mpx_partition(g, {.beta = 0.4, .seed = seed});
      const ClusterMembers members = result.clustering.members_csr();
      for (ClusterId c = 0; c < result.clustering.num_clusters(); ++c) {
        const InducedSubgraph sub = induced_subgraph(g, members.of(c));
        EXPECT_TRUE(is_connected(sub.graph))
            << family << " seed=" << seed << " cluster=" << c;
      }
    }
  }
}

TEST(Mpx, CutFractionTracksBeta) {
  // Expected cut fraction is O(beta); with slack 3x it is a robust test.
  const Graph g = make_torus2d(20, 20);
  for (double beta : {0.1, 0.2, 0.4}) {
    Summary cut;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      cut.add(mpx_partition(g, {.beta = beta, .seed = seed}).cut_fraction);
    }
    EXPECT_LE(cut.mean(), 3.0 * beta) << "beta=" << beta;
  }
}

TEST(Mpx, SmallerBetaCutsFewerEdges) {
  const Graph g = make_gnp(300, 0.03, 4);
  Summary small_beta, large_beta;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    small_beta.add(
        mpx_partition(g, {.beta = 0.05, .seed = seed}).cut_fraction);
    large_beta.add(
        mpx_partition(g, {.beta = 0.8, .seed = seed}).cut_fraction);
  }
  EXPECT_LT(small_beta.mean(), large_beta.mean());
}

TEST(Mpx, DiameterScalesWithLogNOverBeta) {
  // Strong diameter O(log n / beta) w.h.p.; check with constant 6.
  const Graph g = make_grid2d(16, 16);
  const double beta = 0.25;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const MpxResult result = mpx_partition(g, {.beta = beta, .seed = seed});
    const DecompositionReport report = validate_decomposition(
        g, result.clustering, /*compute_weak=*/false);
    ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
    EXPECT_LE(report.max_strong_diameter,
              6.0 * std::log(256.0) / beta);
  }
}

TEST(Mpx, DeterministicInSeed) {
  const Graph g = make_gnp(100, 0.06, 8);
  const MpxResult a = mpx_partition(g, {.beta = 0.3, .seed = 42});
  const MpxResult b = mpx_partition(g, {.beta = 0.3, .seed = 42});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.clustering.cluster_of(v), b.clustering.cluster_of(v));
  }
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(Mpx, TinyBetaGivesOneClusterPerComponent) {
  // beta -> 0 means enormous shifts: one vertex's shifted value dominates
  // everywhere, producing a single cluster per connected component
  // (almost surely). Use a very small beta to make this overwhelming.
  const Graph g = make_cycle(30);
  const MpxResult result = mpx_partition(g, {.beta = 1e-4, .seed = 3});
  EXPECT_EQ(result.clustering.num_clusters(), 1);
  EXPECT_EQ(result.cut_edges, 0);
}

TEST(Mpx, CountsCutEdgesExactly) {
  const Graph g = make_path(50);
  const MpxResult result = mpx_partition(g, {.beta = 0.5, .seed = 5});
  // Recount by hand.
  std::int64_t cuts = 0;
  g.for_each_edge([&](VertexId u, VertexId v) {
    if (result.clustering.cluster_of(u) != result.clustering.cluster_of(v)) {
      ++cuts;
    }
  });
  EXPECT_EQ(result.cut_edges, cuts);
  EXPECT_DOUBLE_EQ(result.cut_fraction,
                   static_cast<double>(cuts) / 49.0);
}

TEST(Mpx, RejectsBadParameters) {
  EXPECT_THROW(mpx_partition(Graph(), {.beta = 0.5, .seed = 1}),
               std::invalid_argument);
  EXPECT_THROW(mpx_partition(make_path(4), {.beta = 0.0, .seed = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
