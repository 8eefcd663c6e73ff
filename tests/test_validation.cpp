#include "decomposition/validation.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace dsnd {
namespace {

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

TEST(ValidateDecomposition, GoodDecompositionPasses) {
  const Graph g = make_path(6);
  const Clustering c = manual_clustering(
      6, {{0, 1}, {2, 3}, {4, 5}}, {0, 1, 0});
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.num_clusters, 3);
  EXPECT_EQ(report.num_colors, 2);
  EXPECT_EQ(report.max_strong_diameter, 1);
  EXPECT_EQ(report.max_weak_diameter, 1);
  EXPECT_DOUBLE_EQ(report.avg_cluster_size, 2.0);
  EXPECT_EQ(report.max_cluster_size, 2);
  EXPECT_TRUE(report.is_strong_decomposition(1, 2));
  EXPECT_FALSE(report.is_strong_decomposition(0, 2));  // diameter too big
  EXPECT_FALSE(report.is_strong_decomposition(1, 1));  // too many colors
}

TEST(ValidateDecomposition, IncompletePartitionReported) {
  const Graph g = make_path(4);
  Clustering c(4);
  const ClusterId a = c.add_cluster(0, 0);
  c.assign(0, a);
  c.assign(1, a);
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.is_strong_decomposition(10, 10));
}

TEST(ValidateDecomposition, ImproperColoringReported) {
  const Graph g = make_path(4);
  const Clustering c = manual_clustering(4, {{0, 1}, {2, 3}}, {0, 0});
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.proper_phase_coloring);
  EXPECT_FALSE(report.is_strong_decomposition(10, 10));
}

TEST(ValidateDecomposition, DisconnectedClusterReported) {
  const Graph g = make_cycle(6);
  const Clustering c = manual_clustering(
      6, {{0, 3}, {1, 2}, {4, 5}}, {0, 1, 2});
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_EQ(report.disconnected_clusters, 1);
  EXPECT_FALSE(report.all_clusters_connected);
  EXPECT_EQ(report.max_strong_diameter, kInfiniteDiameter);
  EXPECT_NE(report.max_weak_diameter, kInfiniteDiameter);
  EXPECT_FALSE(report.is_strong_decomposition(100, 100));
  EXPECT_EQ(report.max_weak_diameter, 3);  // d_G(0, 3) = 3
}

TEST(ValidateDecomposition, StrongExceedsWeakOnDetour) {
  // Cycle of 6: cluster {0,1,2,3,4} excludes 5. Inside the induced path
  // d(0,4) = 4 (strong diameter), while in G the worst member pair is
  // (1,4) at distance 3 (weak diameter) because 0-5-4 shortcuts exist.
  const Graph g = make_cycle(6);
  const Clustering c =
      manual_clustering(6, {{2, 0, 1, 3, 4}, {5}}, {0, 1});
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.max_strong_diameter, 4);
  EXPECT_EQ(report.max_weak_diameter, 3);
  EXPECT_EQ(report.max_radius_from_center, 2);
}

TEST(ValidateDecomposition, CenterOutsideClusterIsFlagged) {
  // Cluster {0, 1} records center 4, which is not a member: its center
  // radius is undefined even though the cluster is connected.
  const Graph g = make_path(5);
  Clustering c(5);
  const ClusterId a = c.add_cluster(4, 0);
  c.assign(0, a);
  c.assign(1, a);
  const ClusterId b = c.add_cluster(2, 1);
  for (const VertexId v : {2, 3, 4}) c.assign(v, b);
  const DecompositionReport report = validate_decomposition(g, c);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.max_strong_diameter, 2);
  EXPECT_EQ(report.max_radius_from_center, kInfiniteDiameter);
}

TEST(ValidateDecomposition, StrongOnlyModeSkipsWeak) {
  const Graph g = make_grid2d(4, 4);
  const Clustering c = manual_clustering(
      16,
      {{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}},
      {0, 1, 0, 1});
  const DecompositionReport report =
      validate_decomposition(g, c, /*compute_weak=*/false);
  EXPECT_EQ(report.max_strong_diameter, 3);
  EXPECT_EQ(report.max_weak_diameter, 0);  // not computed
}

}  // namespace
}  // namespace dsnd
