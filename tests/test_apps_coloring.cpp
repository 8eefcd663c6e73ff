#include "apps/coloring.hpp"

#include <gtest/gtest.h>

#include "apps/checkers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsnd {
namespace {

DecompositionRun decompose(const Graph& g, std::uint64_t seed) {
  return run_schedule(g, theorem1_schedule(g.num_vertices(), 4), seed);
}

TEST(Checkers, ProperColoringBasics) {
  const Graph g = make_path(4);
  EXPECT_TRUE(is_proper_vertex_coloring(g, {0, 1, 0, 1}));
  EXPECT_FALSE(is_proper_vertex_coloring(g, {0, 0, 1, 0}));
  EXPECT_FALSE(is_proper_vertex_coloring(g, {0, -1, 0, 1}));  // uncolored
  EXPECT_EQ(num_colors_used({0, 1, 0, 1}), 2);
  EXPECT_EQ(num_colors_used({}), 0);
}

TEST(ColoringByDecomposition, ProperAndWithinDeltaPlusOne) {
  for (const char* family :
       {"grid", "gnp-sparse", "gnp-dense", "cycle", "random-tree",
        "ring-of-cliques"}) {
    const Graph g = family_by_name(family).make(128, 5);
    const DecompositionRun run = decompose(g, 5);
    const ColoringResult result =
        coloring_by_decomposition(g, run.clustering());
    EXPECT_TRUE(is_proper_vertex_coloring(g, result.colors)) << family;
    EXPECT_LE(result.colors_used, max_degree(g) + 1) << family;
    EXPECT_EQ(result.colors_used, num_colors_used(result.colors)) << family;
  }
}

TEST(ColoringByDecomposition, BipartiteStaysCheap) {
  // First-fit on a path/grid never needs more than a few colors.
  const Graph g = make_grid2d(10, 10);
  const DecompositionRun run = decompose(g, 2);
  const ColoringResult result =
      coloring_by_decomposition(g, run.clustering());
  EXPECT_LE(result.colors_used, 5);  // Delta+1 again
}

TEST(ColoringByDecomposition, CompleteGraphNeedsN) {
  const Graph g = make_complete(12);
  const DecompositionRun run = decompose(g, 4);
  const ColoringResult result =
      coloring_by_decomposition(g, run.clustering());
  EXPECT_EQ(result.colors_used, 12);
}

TEST(ColoringByDecomposition, CostFieldsPopulated) {
  const Graph g = make_gnp(100, 0.06, 6);
  const DecompositionRun run = decompose(g, 6);
  const ColoringResult result =
      coloring_by_decomposition(g, run.clustering());
  EXPECT_GT(result.cost.rounds, 0);
  EXPECT_LE(result.cost.color_classes, run.clustering().num_colors());
  EXPECT_GT(result.cost.color_classes, 0);
}

}  // namespace
}  // namespace dsnd
