#include "decomposition/high_radius.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(HighRadius, KFormula) {
  // k = (cn)^{1/lambda} ln(cn).
  EXPECT_NEAR(high_radius_k(100, 2, 4.0), std::sqrt(400.0) * std::log(400.0),
              1e-9);
  EXPECT_NEAR(high_radius_k(100, 1, 4.0), 400.0 * std::log(400.0), 1e-6);
}

TEST(HighRadius, ColorCountAtMostLambdaOnSuccess) {
  for (std::int32_t lambda : {2, 3, 4}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const Graph g = make_gnp(100, 0.05, seed);
      const DecompositionRun run =
          run_schedule(g, theorem3_schedule(g.num_vertices(), lambda), seed);
      EXPECT_TRUE(run.clustering().is_complete());
      if (run.carve.exhausted_within_target) {
        EXPECT_LE(run.clustering().num_colors(), lambda);
      }
    }
  }
}

TEST(HighRadius, UsuallyExhaustsWithinLambdaPhases) {
  // Success probability is >= 1 - 3/c; with c = 16 that is ~81%.
  int successes = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const Graph g = make_gnp(80, 0.06, static_cast<std::uint64_t>(t));
    const DecompositionRun run =
        run_schedule(g, theorem3_schedule(g.num_vertices(), 3, 16.0),
                     static_cast<std::uint64_t>(t) + 100);
    if (run.carve.exhausted_within_target) ++successes;
  }
  EXPECT_GE(successes, 7);
}

TEST(HighRadius, StrongDiameterWithinBound) {
  const Graph g = make_grid2d(10, 10);
  const DecompositionRun run =
      run_schedule(g, theorem3_schedule(g.num_vertices(), 2), 9);
  if (!run.carve.radius_overflow) {
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_LE(static_cast<double>(report.max_strong_diameter),
              run.bounds.strong_diameter);
    EXPECT_TRUE(report.all_clusters_connected);
  }
  EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering()));
}

TEST(HighRadius, LambdaOneYieldsWholeComponentClusters) {
  // With one color every vertex must be clustered in a single phase, so
  // clusters are unions of whole components (here: the one component).
  const Graph g = make_cycle(32);
  const DecompositionRun run =
      run_schedule(g, theorem3_schedule(g.num_vertices(), 1, 8.0), 4);
  EXPECT_TRUE(run.clustering().is_complete());
  if (run.carve.exhausted_within_target) {
    EXPECT_EQ(run.clustering().num_clusters(), 1);
    EXPECT_EQ(run.clustering().num_colors(), 1);
  }
}

TEST(HighRadius, InverseTradeoffAgainstTheorem1) {
  // Theorem 3 trades more radius for fewer colors: with the same c and
  // graph, lambda = 2 must use far fewer colors than Theorem 1 with
  // k = ln n, at the cost of larger clusters.
  const Graph g = make_gnp(200, 0.04, 6);
  const DecompositionRun run3 =
      run_schedule(g, theorem3_schedule(g.num_vertices(), 2), 6);
  const DecompositionRun run1 =
      run_schedule(g, theorem1_schedule(g.num_vertices()), 6);
  EXPECT_LT(run3.clustering().num_colors(), run1.clustering().num_colors());
}

TEST(HighRadius, RejectsBadParameters) {
  EXPECT_THROW(run_schedule(Graph(), theorem3_schedule(1, 2), 1),
               std::invalid_argument);
  EXPECT_THROW(high_radius_k(100, 0, 4.0), std::invalid_argument);
  EXPECT_THROW(high_radius_k(0, 2, 4.0), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
