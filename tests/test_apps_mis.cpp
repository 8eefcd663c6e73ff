#include "apps/mis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/checkers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

DecompositionRun decompose(const Graph& g, std::uint64_t seed) {
  return run_schedule(g, theorem1_schedule(g.num_vertices(), 4), seed);
}

TEST(Checkers, IndependentSetBasics) {
  const Graph g = make_path(4);
  EXPECT_TRUE(is_independent_set(g, {1, 0, 1, 0}));
  EXPECT_FALSE(is_independent_set(g, {1, 1, 0, 0}));
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 0, 1, 0}));
  // {0} alone is independent but not maximal: vertex 2 could be added.
  EXPECT_FALSE(is_maximal_independent_set(g, {1, 0, 0, 0}));
}

TEST(MisByDecomposition, ValidOnFamilies) {
  for (const char* family :
       {"grid", "gnp-sparse", "gnp-dense", "cycle", "random-tree",
        "ring-of-cliques", "small-world"}) {
    const Graph g = family_by_name(family).make(128, 3);
    const DecompositionRun run = decompose(g, 3);
    const MisResult result = mis_by_decomposition(g, run.clustering());
    EXPECT_TRUE(is_maximal_independent_set(g, result.in_mis)) << family;
  }
}

TEST(MisByDecomposition, RoundCostMatchesDChiShape) {
  const Graph g = make_gnp(150, 0.05, 7);
  const DecompositionRun run = decompose(g, 7);
  const MisResult result = mis_by_decomposition(g, run.clustering());
  // rounds <= (2D + 2) * chi with D the max cluster diameter.
  const std::int64_t upper =
      (2 * static_cast<std::int64_t>(result.cost.max_cluster_diameter) + 2) *
      result.cost.color_classes;
  EXPECT_LE(result.cost.rounds, upper);
  EXPECT_GT(result.cost.rounds, 0);
  // color_classes counts non-empty classes; phases that carved nothing
  // consume a color index but no pipeline time.
  EXPECT_LE(result.cost.color_classes, run.clustering().num_colors());
  EXPECT_GT(result.cost.color_classes, 0);
}

TEST(MisByDecomposition, CompleteGraphPicksExactlyOne) {
  const Graph g = make_complete(20);
  const DecompositionRun run = decompose(g, 5);
  const MisResult result = mis_by_decomposition(g, run.clustering());
  int count = 0;
  for (char b : result.in_mis) count += b;
  EXPECT_EQ(count, 1);
}

TEST(MisByDecomposition, EmptyEdgeSetTakesAll) {
  const Graph g = Graph::from_edges(10, {});
  const DecompositionRun run = decompose(g, 1);
  const MisResult result = mis_by_decomposition(g, run.clustering());
  for (char b : result.in_mis) EXPECT_EQ(b, 1);
}

TEST(GreedyMis, IsValidOracle) {
  for (const char* family : {"grid", "gnp-dense", "cycle"}) {
    const Graph g = family_by_name(family).make(100, 9);
    EXPECT_TRUE(is_maximal_independent_set(g, greedy_mis(g))) << family;
  }
}

TEST(MisByDecomposition, SizeComparableToGreedy) {
  // Both are maximal; sizes should be in the same ballpark (within 3x).
  const Graph g = make_gnp(200, 0.04, 11);
  const DecompositionRun run = decompose(g, 11);
  const MisResult result = mis_by_decomposition(g, run.clustering());
  int dec_size = 0, greedy_size = 0;
  const auto greedy = greedy_mis(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dec_size += result.in_mis[static_cast<std::size_t>(v)];
    greedy_size += greedy[static_cast<std::size_t>(v)];
  }
  EXPECT_GT(dec_size * 3, greedy_size);
  EXPECT_GT(greedy_size * 3, dec_size);
}

/// Oracle: the per-class maximum of cluster_strong_diameters, which runs
/// the all-source sweep in every cluster.
std::vector<std::int32_t> reference_class_diameters(
    const Graph& g, const Clustering& clustering) {
  const std::vector<std::int32_t> diameters =
      cluster_strong_diameters(g, clustering);
  std::vector<std::int32_t> best(
      static_cast<std::size_t>(clustering.num_colors()), 0);
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    std::int32_t& b = best[static_cast<std::size_t>(clustering.color_of(c))];
    const std::int32_t d = diameters[static_cast<std::size_t>(c)];
    b = b == kInfiniteDiameter || d == kInfiniteDiameter ? kInfiniteDiameter
                                                         : std::max(b, d);
  }
  return best;
}

TEST(PipelineOracle, ClassDiametersAndRoundCostMatchAllSourceSweep) {
  for (const char* family : {"grid", "gnp-sparse", "cycle", "small-world",
                             "rgg", "hyperbolic", "ba", "kronecker"}) {
    for (const VertexId n : {200, 3000}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Graph g = family_by_name(family).make(n, seed);
        for (const std::int32_t k : {0, 3}) {
          SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k));
          const DecompositionRun run =
              run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
          const Clustering& clustering = run.clustering();
          const std::vector<std::int32_t> expected =
              reference_class_diameters(g, clustering);
          EXPECT_EQ(color_class_strong_diameters(g, clustering), expected);

          const PipelineCost cost = pipeline_round_cost(g, clustering);
          std::int64_t rounds = 0;
          std::int32_t classes = 0;
          std::int32_t max_diameter = 0;
          for (const auto& cluster_ids : clusters_by_color(clustering)) {
            if (cluster_ids.empty()) continue;
            const std::int32_t d = expected[static_cast<std::size_t>(
                clustering.color_of(cluster_ids.front()))];
            ++classes;
            rounds += 2 * static_cast<std::int64_t>(d) + 2;
            max_diameter = std::max(max_diameter, d);
          }
          EXPECT_EQ(cost.rounds, rounds);
          EXPECT_EQ(cost.color_classes, classes);
          EXPECT_EQ(cost.max_cluster_diameter, max_diameter);
        }
      }
    }
  }
}

TEST(PipelineRoundCost, DisconnectedClusterThrows) {
  // Path 0-1-2 with cluster {0, 2} (disconnected in G) and cluster {1}.
  const Graph g = make_path(3);
  Clustering clustering(3);
  const ClusterId split = clustering.add_cluster(0, 0);
  const ClusterId middle = clustering.add_cluster(1, 1);
  clustering.assign(0, split);
  clustering.assign(2, split);
  clustering.assign(1, middle);
  EXPECT_EQ(color_class_strong_diameters(g, clustering),
            (std::vector<std::int32_t>{kInfiniteDiameter, 0}));
  EXPECT_THROW(pipeline_round_cost(g, clustering), std::invalid_argument);
  EXPECT_THROW(mis_by_decomposition(g, clustering), std::invalid_argument);
}

TEST(ColorClassStrongDiameters, EmptyColorIsZeroAndCenterlessUsesFirstMember) {
  // Cycle of 6 as one cluster of color 2 whose center is a vertex of the
  // other cluster (a path 6-7): colors 0 and 1 stay empty.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                   {4, 5}, {0, 5}, {6, 7}};
  const Graph g = Graph::from_edges(8, edges);
  Clustering clustering(8);
  const ClusterId ring = clustering.add_cluster(6, 2);
  const ClusterId pair = clustering.add_cluster(7, 3);
  for (VertexId v = 0; v < 6; ++v) clustering.assign(v, ring);
  clustering.assign(6, pair);
  clustering.assign(7, pair);
  EXPECT_EQ(color_class_strong_diameters(g, clustering),
            (std::vector<std::int32_t>{0, 0, 3, 1}));
}

}  // namespace
}  // namespace dsnd
