#include "decomposition/covers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "decomposition/validation.hpp"
#include "floyd_warshall.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(Covers, PropertiesHoldOnFamilies) {
  for (const char* family : {"grid", "cycle", "random-tree", "gnp-sparse"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const Graph g = family_by_name(family).make(80, seed);
      CoverOptions options;
      options.radius = 2;
      options.k = 3;
      options.seed = seed;
      const NeighborhoodCover cover = build_neighborhood_cover(g, options);
      const CoverReport report = validate_cover(g, cover);
      // Ball coverage holds unconditionally (partitions cover V).
      EXPECT_TRUE(report.all_balls_covered) << family << " seed=" << seed;
      if (!cover.base.carve.radius_overflow) {
        EXPECT_TRUE(report.color_classes_disjoint)
            << family << " seed=" << seed;
        EXPECT_TRUE(report.all_clusters_connected)
            << family << " seed=" << seed;
        // Strong diameter <= (2W+1)(2k-2) + 2W.
        const std::int32_t bound =
            (2 * options.radius + 1) * (2 * options.k - 2) +
            2 * options.radius;
        ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
        EXPECT_LE(report.max_strong_diameter, bound)
            << family << " seed=" << seed;
        // Overlap bounded by the number of colors.
        EXPECT_LE(report.max_overlap, cover.num_colors);
      }
    }
  }
}

TEST(Covers, ExpansionIsTheWBallUnion) {
  for (const char* family : {"grid", "cycle", "random-tree", "gnp-sparse"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const Graph g = family_by_name(family).make(80, seed);
      const auto d = floyd_warshall(g);
      for (const std::int32_t radius : {1, 2, 3}) {
        CoverOptions options;
        options.radius = radius;
        options.k = 3;
        options.seed = seed;
        const NeighborhoodCover cover = build_neighborhood_cover(g, options);
        const Clustering& clustering = cover.base.clustering();
        ASSERT_EQ(cover.clusters.size(),
                  static_cast<std::size_t>(clustering.num_clusters()));
        for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
          // {v : min over members u of d(u, v) <= W}, ascending.
          std::vector<VertexId> expected;
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            for (VertexId u = 0; u < g.num_vertices(); ++u) {
              const std::int32_t duv = d[static_cast<std::size_t>(u)]
                                        [static_cast<std::size_t>(v)];
              if (clustering.cluster_of(u) == c && duv != kUnreachable &&
                  duv <= radius) {
                expected.push_back(v);
                break;
              }
            }
          }
          const CoverCluster& cluster =
              cover.clusters[static_cast<std::size_t>(c)];
          EXPECT_EQ(cluster.members, expected) << family << " seed=" << seed
                                               << " W=" << radius
                                               << " cluster " << c;
          EXPECT_EQ(cluster.center, clustering.center_of(c));
          EXPECT_EQ(cluster.color, clustering.color_of(c));
        }
      }
    }
  }
}

TEST(Covers, ValidatorFlagsEachViolation) {
  // The path 0-1-2-3-4-5 with W = 1: {0..3} holds the balls of 0, 1, 2
  // and {2..5} those of 3, 4, 5; their colors differ, so 2 and 3 may lie
  // in both.
  const Graph g = make_path(6);
  NeighborhoodCover valid;
  valid.radius = 1;
  valid.num_colors = 2;
  valid.clusters = {{{0, 1, 2, 3}, 0, 0}, {{2, 3, 4, 5}, 5, 1}};
  const CoverReport clean = validate_cover(g, valid);
  EXPECT_TRUE(clean.all_balls_covered);
  EXPECT_TRUE(clean.color_classes_disjoint);
  EXPECT_TRUE(clean.all_clusters_connected);
  EXPECT_EQ(clean.max_overlap, 2);
  EXPECT_EQ(clean.max_strong_diameter, 3);
  EXPECT_DOUBLE_EQ(clean.avg_cluster_size, 4.0);

  // Dropping 0 leaves B(0, 1) = {0, 1} in no cluster.
  NeighborhoodCover dropped = valid;
  dropped.clusters[0].members = {1, 2, 3};
  const CoverReport uncovered = validate_cover(g, dropped);
  EXPECT_FALSE(uncovered.all_balls_covered);
  EXPECT_TRUE(uncovered.color_classes_disjoint);
  EXPECT_TRUE(uncovered.all_clusters_connected);

  // Two overlapping clusters with one color.
  NeighborhoodCover same_color = valid;
  same_color.clusters[1].color = 0;
  const CoverReport clash = validate_cover(g, same_color);
  EXPECT_TRUE(clash.all_balls_covered);
  EXPECT_FALSE(clash.color_classes_disjoint);
  EXPECT_TRUE(clash.all_clusters_connected);

  // Adding 5 splits the first cluster into {0..3} and {5}.
  NeighborhoodCover split = valid;
  split.clusters[0].members = {0, 1, 2, 3, 5};
  const CoverReport disconnected = validate_cover(g, split);
  EXPECT_TRUE(disconnected.all_balls_covered);
  EXPECT_TRUE(disconnected.color_classes_disjoint);
  EXPECT_FALSE(disconnected.all_clusters_connected);
  EXPECT_EQ(disconnected.max_strong_diameter, kInfiniteDiameter);

  // A third cluster {2} puts vertex 2 in three clusters.
  NeighborhoodCover crowded = valid;
  crowded.num_colors = 3;
  crowded.clusters.push_back({{2}, 2, 2});
  const CoverReport overlap = validate_cover(g, crowded);
  EXPECT_EQ(overlap.max_overlap, 3);
  EXPECT_TRUE(overlap.all_balls_covered);
  EXPECT_TRUE(overlap.color_classes_disjoint);
  EXPECT_TRUE(overlap.all_clusters_connected);
  EXPECT_EQ(overlap.max_strong_diameter, 3);
}

TEST(Covers, RadiusOneOnGrid) {
  const Graph g = make_grid2d(8, 8);
  CoverOptions options;
  options.radius = 1;
  options.k = 3;
  options.seed = 4;
  const NeighborhoodCover cover = build_neighborhood_cover(g, options);
  const CoverReport report = validate_cover(g, cover);
  EXPECT_TRUE(report.all_balls_covered);
  EXPECT_GT(cover.clusters.size(), 0u);
  EXPECT_EQ(cover.radius, 1);
}

TEST(Covers, EveryVertexInSomeCluster) {
  const Graph g = make_cycle(30);
  CoverOptions options;
  options.radius = 2;
  options.seed = 6;
  const NeighborhoodCover cover = build_neighborhood_cover(g, options);
  std::vector<char> covered(30, 0);
  for (const CoverCluster& cluster : cover.clusters) {
    for (const VertexId v : cluster.members) {
      covered[static_cast<std::size_t>(v)] = 1;
    }
  }
  for (const char c : covered) EXPECT_EQ(c, 1);
}

TEST(Covers, ExpansionContainsCore) {
  // Each cover cluster contains its center's whole W-ball.
  const Graph g = make_grid2d(6, 6);
  CoverOptions options;
  options.radius = 2;
  options.seed = 8;
  const NeighborhoodCover cover = build_neighborhood_cover(g, options);
  for (const CoverCluster& cluster : cover.clusters) {
    EXPECT_GE(cluster.members.size(), 1u);
    EXPECT_GE(cluster.color, 0);
  }
}

TEST(Covers, RejectsBadParameters) {
  EXPECT_THROW(build_neighborhood_cover(Graph(), CoverOptions{}),
               std::invalid_argument);
  CoverOptions options;
  options.radius = 0;
  EXPECT_THROW(build_neighborhood_cover(make_path(4), options),
               std::invalid_argument);
  // 2W + 1 would overflow 32 bits.
  options.radius = kMaxCoverRadius + 1;
  EXPECT_THROW(build_neighborhood_cover(make_path(4), options),
               std::invalid_argument);
}

TEST(Covers, DeterministicInSeed) {
  const Graph g = make_gnp(50, 0.1, 2);
  CoverOptions options;
  options.radius = 1;
  options.seed = 42;
  const NeighborhoodCover a = build_neighborhood_cover(g, options);
  const NeighborhoodCover b = build_neighborhood_cover(g, options);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members);
  }
}

}  // namespace
}  // namespace dsnd
