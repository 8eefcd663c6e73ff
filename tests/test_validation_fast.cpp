// validate_decomposition_fast against the brute-force ground truth: the
// exact fields must agree on every fixture, and the fast tier's diameter
// bracket must contain the true max strong diameter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

void expect_agrees(const Graph& g, const Clustering& clustering,
                   const std::string& label) {
  const DecompositionReport brute = validate_decomposition(g, clustering);
  const FastDecompositionReport fast =
      validate_decomposition_fast(g, clustering);
  EXPECT_EQ(fast.complete, brute.complete) << label;
  EXPECT_EQ(fast.proper_phase_coloring, brute.proper_phase_coloring)
      << label;
  EXPECT_EQ(fast.num_clusters, brute.num_clusters) << label;
  EXPECT_EQ(fast.num_colors, brute.num_colors) << label;
  EXPECT_EQ(fast.disconnected_clusters, brute.disconnected_clusters)
      << label;
  EXPECT_EQ(fast.all_clusters_connected, brute.all_clusters_connected)
      << label;
  EXPECT_EQ(fast.max_radius_from_center, brute.max_radius_from_center)
      << label;
  EXPECT_DOUBLE_EQ(fast.avg_cluster_size, brute.avg_cluster_size) << label;
  EXPECT_EQ(fast.max_cluster_size, brute.max_cluster_size) << label;
  if (brute.max_strong_diameter == kInfiniteDiameter) {
    EXPECT_EQ(fast.strong_diameter_lower, kInfiniteDiameter) << label;
    EXPECT_EQ(fast.strong_diameter_upper, kInfiniteDiameter) << label;
  } else {
    // The bracket must contain the exact value.
    ASSERT_NE(fast.strong_diameter_lower, kInfiniteDiameter) << label;
    ASSERT_NE(fast.strong_diameter_upper, kInfiniteDiameter) << label;
    EXPECT_LE(fast.strong_diameter_lower, brute.max_strong_diameter)
        << label;
    EXPECT_GE(fast.strong_diameter_upper, brute.max_strong_diameter)
        << label;
  }
}

TEST(ValidateFast, AgreesWithBruteForceOnTheoremRuns) {
  for (const char* family :
       {"gnp-sparse", "grid", "random-tree", "cycle", "rgg"}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const Graph g = family_by_name(family).make(96, seed);
      const DecompositionRun run =
          run_schedule(g, theorem1_schedule(g.num_vertices(), 4), seed);
      expect_agrees(g, run.clustering(),
                    std::string(family) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(ValidateFast, AgreesAcrossAllThreeTheorems) {
  const Graph g = family_by_name("gnp-sparse").make(120, 5);
  {
    expect_agrees(
        g,
        run_schedule(g, theorem2_schedule(g.num_vertices(), 3), 5).clustering(),
        "theorem2");
  }
  {
    expect_agrees(
        g,
        run_schedule(g, theorem3_schedule(g.num_vertices(), 3), 5).clustering(),
        "theorem3");
  }
}

Clustering manual_clustering(VertexId n,
                             const std::vector<std::vector<VertexId>>& sets,
                             const std::vector<std::int32_t>& colors) {
  Clustering c(n);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const ClusterId id = c.add_cluster(sets[i].front(), colors[i]);
    for (const VertexId v : sets[i]) c.assign(v, id);
  }
  return c;
}

TEST(ValidateFast, GoodDecompositionCertified) {
  const Graph g = make_path(6);
  const Clustering c =
      manual_clustering(6, {{0, 1}, {2, 3}, {4, 5}}, {0, 1, 0});
  const FastDecompositionReport report = validate_decomposition_fast(g, c);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.centerless_clusters, 0);
  EXPECT_EQ(report.strong_diameter_lower, 1);
  EXPECT_EQ(report.strong_diameter_upper, 2);  // 2 * center radius
  EXPECT_TRUE(report.is_strong_decomposition(2));
  // Connected, properly colored and complete, but the certificate is
  // over the bound.
  EXPECT_FALSE(report.is_strong_decomposition(1));
}

TEST(ValidateFast, DisconnectedClusterDetected) {
  const Graph g = make_cycle(6);
  const Clustering c =
      manual_clustering(6, {{0, 3}, {1, 2}, {4, 5}}, {0, 1, 2});
  const FastDecompositionReport report = validate_decomposition_fast(g, c);
  EXPECT_EQ(report.disconnected_clusters, 1);
  EXPECT_FALSE(report.all_clusters_connected);
  EXPECT_EQ(report.strong_diameter_upper, kInfiniteDiameter);
  EXPECT_EQ(report.max_radius_from_center, kInfiniteDiameter);
  EXPECT_FALSE(report.is_strong_decomposition(100));
  expect_agrees(g, c, "disconnected");
}

TEST(ValidateFast, ImproperColoringAndIncompleteDetected) {
  const Graph g = make_path(4);
  const Clustering improper =
      manual_clustering(4, {{0, 1}, {2, 3}}, {0, 0});
  EXPECT_FALSE(
      validate_decomposition_fast(g, improper).proper_phase_coloring);
  expect_agrees(g, improper, "improper");

  Clustering incomplete(4);
  const ClusterId a = incomplete.add_cluster(0, 0);
  incomplete.assign(0, a);
  incomplete.assign(1, a);
  const FastDecompositionReport report =
      validate_decomposition_fast(g, incomplete);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.is_strong_decomposition(10));
}

TEST(ValidateFast, CenterlessClusterFlagged) {
  // Centers outside their cluster only occur in truncated runs; the fast
  // tier must flag them rather than certify a radius.
  const Graph g = make_path(5);
  Clustering c(5);
  const ClusterId a = c.add_cluster(4, 0);  // center 4 is not a member
  c.assign(0, a);
  c.assign(1, a);
  const ClusterId b = c.add_cluster(2, 1);
  c.assign(2, b);
  c.assign(3, b);
  c.assign(4, b);
  const FastDecompositionReport report = validate_decomposition_fast(g, c);
  EXPECT_EQ(report.centerless_clusters, 1);
  EXPECT_EQ(report.max_radius_from_center, kInfiniteDiameter);
  // Connectivity and the diameter bracket still come out right.
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.strong_diameter_lower, 2);
  // Complete, properly colored and connected, yet not a decomposition
  // the gate accepts.
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_FALSE(report.is_strong_decomposition(100));
}

TEST(ValidateFast, SingletonClusters) {
  const Graph g = make_path(3);
  const Clustering c = manual_clustering(3, {{0}, {1}, {2}}, {0, 1, 2});
  const FastDecompositionReport report = validate_decomposition_fast(g, c);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.strong_diameter_lower, 0);
  EXPECT_EQ(report.strong_diameter_upper, 0);
  EXPECT_EQ(report.max_radius_from_center, 0);
  expect_agrees(g, c, "singletons");
}

TEST(ValidateFast, DoubleSweepExactOnTreeClusters) {
  // Clusters that induce trees: the double-sweep lower bound equals the
  // exact strong diameter, so the bracket pins the true value.
  const Graph g = make_random_tree(64, 7);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 7);
  const DecompositionReport brute =
      validate_decomposition(g, run.clustering());
  const FastDecompositionReport fast =
      validate_decomposition_fast(g, run.clustering());
  EXPECT_EQ(fast.strong_diameter_lower, brute.max_strong_diameter);
}

}  // namespace
}  // namespace dsnd
