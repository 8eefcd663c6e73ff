#include "decomposition/supergraph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/checkers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsnd {
namespace {

Clustering two_cluster_path() {
  // Path 0-1-2-3; clusters {0,1} and {2,3}.
  Clustering c(4);
  const ClusterId a = c.add_cluster(0, 0);
  const ClusterId b = c.add_cluster(2, 1);
  c.assign(0, a);
  c.assign(1, a);
  c.assign(2, b);
  c.assign(3, b);
  return c;
}

TEST(Supergraph, ContractsToSingleEdge) {
  const Graph g = make_path(4);
  const Graph super = build_supergraph(g, two_cluster_path());
  EXPECT_EQ(super.num_vertices(), 2);
  EXPECT_EQ(super.num_edges(), 1);
  EXPECT_TRUE(super.has_edge(0, 1));
}

TEST(Supergraph, ParallelEdgesMerged) {
  // 4-cycle split into two opposite pairs: two original edges between the
  // clusters collapse to one supergraph edge.
  const Graph g = make_cycle(4);
  Clustering c(4);
  const ClusterId a = c.add_cluster(0, 0);
  const ClusterId b = c.add_cluster(2, 1);
  c.assign(0, a);
  c.assign(1, a);
  c.assign(2, b);
  c.assign(3, b);
  const Graph super = build_supergraph(g, c);
  EXPECT_EQ(super.num_edges(), 1);
}

TEST(Supergraph, RequiresCompletePartition) {
  const Graph g = make_path(3);
  Clustering c(3);
  const ClusterId a = c.add_cluster(0, 0);
  c.assign(0, a);
  EXPECT_THROW(build_supergraph(g, c), std::invalid_argument);
}

TEST(Supergraph, PhaseColoringProperDetectsViolation) {
  const Graph g = make_path(4);
  // Same color on two adjacent clusters.
  Clustering c(4);
  const ClusterId a = c.add_cluster(0, 0);
  const ClusterId b = c.add_cluster(2, 0);
  c.assign(0, a);
  c.assign(1, a);
  c.assign(2, b);
  c.assign(3, b);
  EXPECT_FALSE(phase_coloring_is_proper(g, c));
  EXPECT_TRUE(phase_coloring_is_proper(g, two_cluster_path()));
}

TEST(Supergraph, PhaseColoringIgnoresUnassigned) {
  const Graph g = make_path(3);
  Clustering c(3);
  const ClusterId a = c.add_cluster(0, 0);
  c.assign(0, a);
  // Vertices 1, 2 unassigned: no violation can be attributed.
  EXPECT_TRUE(phase_coloring_is_proper(g, c));
}

TEST(GreedyColoring, ProperOnFamilies) {
  for (const char* family : {"grid", "gnp-dense", "cycle", "small-world"}) {
    const Graph g = family_by_name(family).make(100, 2);
    const auto colors = greedy_coloring(g);
    EXPECT_TRUE(is_proper_vertex_coloring(g, colors)) << family;
    EXPECT_LE(num_colors_used(colors), max_degree(g) + 1) << family;
  }
}

TEST(GreedyColoring, PathUsesTwoColors) {
  const auto colors = greedy_coloring(make_path(10));
  EXPECT_EQ(num_colors_used(colors), 2);
}

TEST(GreedyColoring, CompleteUsesAllColors) {
  const auto colors = greedy_coloring(make_complete(7));
  EXPECT_EQ(num_colors_used(colors), 7);
}

TEST(GreedyRecoloring, NeverWorseThanPhaseCount) {
  const Graph g = make_gnp(150, 0.05, 3);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 4), 3);
  const std::int32_t greedy = greedy_supergraph_colors(g, run.clustering());
  EXPECT_LE(greedy, run.clustering().num_colors());
  EXPECT_GE(greedy, 1);
}

}  // namespace
}  // namespace dsnd
