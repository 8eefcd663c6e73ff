#include "apps/matching.hpp"

#include <gtest/gtest.h>

#include "apps/checkers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

DecompositionRun decompose(const Graph& g, std::uint64_t seed) {
  return run_schedule(g, theorem1_schedule(g.num_vertices(), 4), seed);
}

TEST(Checkers, MatchingBasics) {
  const Graph g = make_path(4);
  EXPECT_TRUE(is_matching(g, {1, 0, 3, 2}));
  EXPECT_TRUE(is_maximal_matching(g, {1, 0, 3, 2}));
  EXPECT_TRUE(is_matching(g, {-1, -1, -1, -1}));
  EXPECT_FALSE(is_maximal_matching(g, {-1, -1, -1, -1}));
  // Asymmetric mate is invalid.
  EXPECT_FALSE(is_matching(g, {1, -1, -1, -1}));
  // Non-edge pairing is invalid.
  EXPECT_FALSE(is_matching(g, {2, -1, 0, -1}));
  // Self-pairing is invalid.
  EXPECT_FALSE(is_matching(g, {0, -1, -1, -1}));
}

TEST(MatchingByDecomposition, MaximalOnFamilies) {
  for (const char* family :
       {"grid", "gnp-sparse", "gnp-dense", "cycle", "random-tree",
        "ring-of-cliques", "small-world"}) {
    const Graph g = family_by_name(family).make(128, 7);
    const DecompositionRun run = decompose(g, 7);
    const MatchingResult result =
        matching_by_decomposition(g, run.clustering());
    EXPECT_TRUE(is_maximal_matching(g, result.mate)) << family;
  }
}

TEST(MatchingByDecomposition, CountsMatchedEdges) {
  const Graph g = make_path(6);
  const DecompositionRun run = decompose(g, 2);
  const MatchingResult result =
      matching_by_decomposition(g, run.clustering());
  VertexId matched_vertices = 0;
  for (const VertexId m : result.mate) {
    if (m != -1) ++matched_vertices;
  }
  EXPECT_EQ(matched_vertices, 2 * result.matched_edges);
}

TEST(MatchingByDecomposition, PerfectOnCompleteEven) {
  const Graph g = make_complete(16);
  const DecompositionRun run = decompose(g, 3);
  const MatchingResult result =
      matching_by_decomposition(g, run.clustering());
  EXPECT_EQ(result.matched_edges, 8);  // maximal = perfect on K_16
}

TEST(MatchingByDecomposition, EdgelessGraphMatchesNothing) {
  const Graph g = Graph::from_edges(8, {});
  const DecompositionRun run = decompose(g, 1);
  const MatchingResult result =
      matching_by_decomposition(g, run.clustering());
  EXPECT_EQ(result.matched_edges, 0);
  EXPECT_TRUE(is_maximal_matching(g, result.mate));
}

TEST(MatchingByDecomposition, StarMatchesExactlyOneEdge) {
  const Graph g = make_star(9);
  const DecompositionRun run = decompose(g, 4);
  const MatchingResult result =
      matching_by_decomposition(g, run.clustering());
  EXPECT_EQ(result.matched_edges, 1);
  EXPECT_TRUE(is_maximal_matching(g, result.mate));
}

}  // namespace
}  // namespace dsnd
