#include "decomposition/elkin_neiman.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"

namespace dsnd {
namespace {

TEST(ElkinNeiman, ResolveKDefaultsToLogN) {
  EXPECT_EQ(resolve_k(1024, 0), 7);  // ceil(ln 1024) = ceil(6.93)
  EXPECT_EQ(resolve_k(3, 0), 2);     // ceil(ln 3) = 2
  EXPECT_EQ(resolve_k(1, 0), 1);
  EXPECT_EQ(resolve_k(1000, 5), 5);  // explicit k wins
  EXPECT_THROW(resolve_k(10, -1), std::invalid_argument);
}

TEST(ElkinNeiman, BetaAndLambdaFormulas) {
  const VertexId n = 100;
  const double c = 4.0;
  const std::int32_t k = 3;
  EXPECT_NEAR(elkin_neiman_beta(n, k, c), std::log(400.0) / 3.0, 1e-12);
  const double lambda = std::pow(400.0, 1.0 / 3.0) * std::log(400.0);
  EXPECT_EQ(elkin_neiman_target_phases(n, k, c),
            static_cast<std::int32_t>(std::ceil(lambda)));
}

TEST(ElkinNeiman, CompletePartitionAndProperColoring) {
  for (const char* family : {"grid", "gnp-sparse", "random-tree", "cycle"}) {
    const Graph g = family_by_name(family).make(128, 7);
    const DecompositionRun run =
        run_schedule(g, theorem1_schedule(g.num_vertices(), 4), 1);
    EXPECT_TRUE(run.clustering().is_complete()) << family;
    EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering())) << family;
  }
}

TEST(ElkinNeiman, StrongDiameterWithinBoundWithoutOverflow) {
  // The theorem guarantee: when Lemma 1's event did not occur, every
  // cluster is connected with strong diameter <= 2k-2.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = make_gnp(150, 0.04, seed);
    const DecompositionRun run =
        run_schedule(g, theorem1_schedule(g.num_vertices(), 4), seed);
    if (run.carve.radius_overflow) continue;  // conditioned out, as in paper
    ++checked;
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_TRUE(report.all_clusters_connected);
    ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
    EXPECT_LE(report.max_strong_diameter, 2 * 4 - 2);
  }
  EXPECT_GE(checked, 8);  // overflow probability is ~2/c per run, c = 4
}

TEST(ElkinNeiman, CenterRadiusWithinKMinus1) {
  // Observation 2: members lie within distance ⌊r⌋ - 1 <= k - 1 of their
  // center inside the cluster.
  const Graph g = make_grid2d(12, 12);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 5), 3);
  if (!run.carve.radius_overflow) {
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_LE(report.max_radius_from_center, 5 - 1);
  }
}

TEST(ElkinNeiman, DeterministicInSeed) {
  const Graph g = make_gnp(100, 0.06, 5);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
  const DecompositionRun a = run_schedule(g, schedule, 77);
  const DecompositionRun b = run_schedule(g, schedule, 77);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
  }
  EXPECT_EQ(a.carve.phases_used, b.carve.phases_used);
}

TEST(ElkinNeiman, KEqualsOneGivesSingletonClusters) {
  // D = 2k-2 = 0: every cluster is one vertex.
  const Graph g = make_complete(30);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 1), 2);
  EXPECT_TRUE(run.clustering().is_complete());
  if (!run.carve.radius_overflow) {
    EXPECT_EQ(run.clustering().num_clusters(), g.num_vertices());
  }
}

TEST(ElkinNeiman, BoundsFieldsPopulated) {
  const Graph g = make_path(64);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3, 4.0), 1);
  EXPECT_DOUBLE_EQ(run.bounds.strong_diameter, 4.0);
  EXPECT_DOUBLE_EQ(run.bounds.success_probability, 1.0 - 3.0 / 4.0);
  EXPECT_EQ(run.bounds.colors,
            static_cast<double>(elkin_neiman_target_phases(64, 3, 4.0)));
  EXPECT_DOUBLE_EQ(run.k, 3.0);
}

TEST(ElkinNeiman, RoundAccountingMatchesPhases) {
  const Graph g = make_cycle(80);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 4), 6);
  EXPECT_EQ(run.carve.rounds,
            static_cast<std::int64_t>(run.carve.phases_used) * (4 + 1));
}

TEST(ElkinNeiman, HandlesDisconnectedGraphs) {
  // Two components decompose independently; the partition must cover both.
  GraphBuilder builder(40);
  for (VertexId v = 0; v + 1 < 20; ++v) builder.add_edge(v, v + 1);
  for (VertexId v = 20; v + 1 < 40; ++v) builder.add_edge(v, v + 1);
  const Graph g = std::move(builder).build();
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 4);
  EXPECT_TRUE(run.clustering().is_complete());
  EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering()));
}

TEST(ElkinNeiman, SingleVertex) {
  const Graph g = make_path(1);
  const DecompositionRun run = run_schedule(g, theorem1_schedule(1), 1);
  EXPECT_TRUE(run.clustering().is_complete());
  EXPECT_EQ(run.clustering().num_clusters(), 1);
}

TEST(ElkinNeiman, RejectsEmptyGraphAndBadC) {
  EXPECT_THROW(run_schedule(Graph(), theorem1_schedule(1), 1),
               std::invalid_argument);
  EXPECT_THROW(theorem1_schedule(0), std::invalid_argument);
  EXPECT_THROW(theorem1_schedule(4, 0, 0.0), std::invalid_argument);
}

TEST(ElkinNeiman, MarginZeroAblationBreaksLemma4) {
  // E9 ablation: with margin 0 the partition still completes, but Lemma 4
  // fails — adjacent vertices may choose different centers in the same
  // phase, so the per-(phase, center) clusters are no longer guaranteed
  // independent. Across seeds the violation must actually show up (this
  // is exactly what the margin of 1 buys).
  bool improper_seen = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = make_gnp(100, 0.08, seed);
    const CarveResult carve = carve_decomposition(
        g, theorem1_schedule(g.num_vertices(), 4), seed, /*margin=*/0.0);
    EXPECT_TRUE(carve.clustering.is_complete());
    if (!phase_coloring_is_proper(g, carve.clustering)) improper_seen = true;
  }
  EXPECT_TRUE(improper_seen);
}

TEST(ElkinNeiman, FewerPhasesWithSmallerMargin) {
  const Graph g = make_gnp(200, 0.05, 10);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
  const CarveResult strict = carve_decomposition(g, schedule, 21);
  const CarveResult loose =
      carve_decomposition(g, schedule, 21, /*margin=*/0.0);
  EXPECT_LE(loose.phases_used, strict.phases_used);
}

}  // namespace
}  // namespace dsnd
