// validate_decomposition_fast against the brute-force ground truth: the
// exact fields must agree on every fixture, and the fast tier's diameter
// bracket must contain the true max strong diameter. It must also equal,
// field for field, the reference fast validator that sweeps each cluster
// in g itself (tests/reference_kernels.hpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_kernels.hpp"

namespace dsnd {
namespace {

void expect_agrees(const Graph& g, const Clustering& clustering,
                   const std::string& label) {
  const DecompositionReport brute = validate_decomposition(g, clustering);
  const FastDecompositionReport fast =
      validate_decomposition_fast(g, clustering);
  EXPECT_EQ(fast, reference_validate_decomposition_fast(g, clustering))
      << label;
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
  EXPECT_EQ(report, reference_validate_decomposition_fast(g, c));
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
  EXPECT_EQ(report, reference_validate_decomposition_fast(g, incomplete));
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
  EXPECT_EQ(report, reference_validate_decomposition_fast(g, c));
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

TEST(ValidateFast, EqualsReferenceOnTheoremRunsOverPointOrderInputs) {
  // Generation-order ids, as the pipeline validates them: RGG ids are in
  // point order and G(n, p) ids carry no locality, so clusters are
  // scattered over the id space.
  struct Input {
    std::string label;
    Graph g;
  };
  std::vector<Input> inputs;
  for (const VertexId n : {20000, 50000}) {
    inputs.push_back({"rgg n=" + std::to_string(n),
                      family_by_name("rgg").make(n, 3)});
    inputs.push_back({"gnp n=" + std::to_string(n),
                      family_by_name("gnp-sparse").make(n, 4)});
  }
  inputs.push_back({"hyperbolic n=5000",
                    family_by_name("hyperbolic").make(5000, 5)});
  inputs.push_back({"ring n=20000", make_cycle(20000)});
  for (const Input& input : inputs) {
    const VertexId n = input.g.num_vertices();
    const CarveSchedule schedules[] = {theorem1_schedule(n, 0, 4.0),
                                       theorem2_schedule(n, 3),
                                       theorem3_schedule(n, 3)};
    for (std::size_t t = 0; t < std::size(schedules); ++t) {
      const Clustering clustering =
          run_schedule(input.g, schedules[t], 17 + t).clustering();
      const FastDecompositionReport fast =
          validate_decomposition_fast(input.g, clustering);
      EXPECT_EQ(fast,
                reference_validate_decomposition_fast(input.g, clustering))
          << input.label << " theorem " << t + 1;
      EXPECT_TRUE(fast.is_strong_decomposition(
          schedules[t].bounds.strong_diameter))
          << input.label << " theorem " << t + 1;
    }
  }
}

TEST(ValidateFast, EqualsReferenceOnIncompleteClusterings) {
  // Unassigned vertices take no part: edges at them are neither coloring
  // conflicts nor cluster edges, so the clusters {1, 2} and {4} of a path
  // are connected and properly colored with a gap between them.
  const Graph g = make_path(6);
  Clustering c(6);
  const ClusterId a = c.add_cluster(2, 0);
  c.assign(1, a);
  c.assign(2, a);
  const ClusterId b = c.add_cluster(4, 0);
  c.assign(4, b);
  const FastDecompositionReport report = validate_decomposition_fast(g, c);
  EXPECT_EQ(report, reference_validate_decomposition_fast(g, c));
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.max_radius_from_center, 1);
  EXPECT_DOUBLE_EQ(report.avg_cluster_size, 1.5);
}

TEST(ValidateFast, EqualsReferenceOnSplitClustersAndTheEmptyGraph) {
  // On a cycle of 8: a cluster whose center reaches one of its two
  // halves, and a centerless one whose first member does.
  const Graph cycle = make_cycle(8);
  Clustering split(8);
  const ClusterId s0 = split.add_cluster(5, 0);
  for (const VertexId v : {0, 1, 4, 5}) split.assign(v, s0);
  const ClusterId s1 = split.add_cluster(0, 1);
  for (const VertexId v : {2, 3, 6, 7}) split.assign(v, s1);
  const FastDecompositionReport report =
      validate_decomposition_fast(cycle, split);
  EXPECT_EQ(report, reference_validate_decomposition_fast(cycle, split));
  EXPECT_EQ(report.disconnected_clusters, 2);
  EXPECT_EQ(report.centerless_clusters, 1);

  EXPECT_EQ(validate_decomposition_fast(Graph(), Clustering(0)),
            reference_validate_decomposition_fast(Graph(), Clustering(0)));
}

TEST(ValidateFast, EmptyClusterThrowsLikeTheReference) {
  const Graph g = make_path(3);
  Clustering c(3);
  const ClusterId a = c.add_cluster(0, 0);
  for (const VertexId v : {0, 1, 2}) c.assign(v, a);
  c.add_cluster(1, 1);  // no members
  EXPECT_THROW(validate_decomposition_fast(g, c), std::logic_error);
  EXPECT_THROW(reference_validate_decomposition_fast(g, c),
               std::logic_error);
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
