#include "decomposition/multistage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(Multistage, ScheduleMatchesPaperFormula) {
  const VertexId n = 256;
  const double c = 6.0;
  const std::int32_t k = 4;
  const auto betas = multistage_beta_schedule(n, k, c);
  const double cn = c * n;
  // First stage: 2(cn)^{1/k} phases at beta = ln(cn)/k.
  const auto s0 = static_cast<std::size_t>(
      std::ceil(2.0 * std::pow(cn, 1.0 / k)));
  ASSERT_GE(betas.size(), s0);
  for (std::size_t t = 0; t < s0; ++t) {
    EXPECT_NEAR(betas[t], std::log(cn) / k, 1e-12);
  }
  // Schedule total is bounded by the theorem's 4k(cn)^{1/k} color budget
  // (plus rounding slack from the per-stage ceil).
  const double color_bound = 4.0 * k * std::pow(cn, 1.0 / k);
  EXPECT_LE(static_cast<double>(betas.size()),
            color_bound + std::log(static_cast<double>(n)) + 2.0);
  // Betas decay across stages.
  EXPECT_LT(betas.back(), betas.front());
}

TEST(Multistage, BetasAllPositive) {
  for (VertexId n : {10, 100, 1000}) {
    for (const auto beta : multistage_beta_schedule(n, 3, 6.0)) {
      EXPECT_GT(beta, 0.0);
    }
  }
}

TEST(Multistage, CompleteAndProper) {
  for (const char* family : {"grid", "gnp-sparse", "small-world"}) {
    const Graph g = family_by_name(family).make(128, 5);
    const DecompositionRun run =
        run_schedule(g, theorem2_schedule(g.num_vertices(), 4), 5);
    EXPECT_TRUE(run.clustering().is_complete()) << family;
    EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering())) << family;
  }
}

TEST(Multistage, StrongDiameterBoundHolds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = make_gnp(120, 0.05, seed);
    const DecompositionRun run =
        run_schedule(g, theorem2_schedule(g.num_vertices(), 4), seed);
    if (run.carve.radius_overflow) continue;
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_LE(report.max_strong_diameter, 2 * 4 - 2) << "seed=" << seed;
    EXPECT_TRUE(report.all_clusters_connected);
  }
}

TEST(Multistage, UsesFewerOrEqualColorsThanTheorem1OnAverage) {
  // The whole point of Theorem 2: 4k(cn)^{1/k} < (cn)^{1/k} ln(cn) once
  // ln(cn) > 4k. Use k = 1 on a larger graph so the gap is decisive.
  double colors_t1 = 0.0;
  double colors_t2 = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = make_gnp(300, 0.02, seed);
    const VertexId n = g.num_vertices();
    colors_t1 +=
        run_schedule(g, theorem1_schedule(n, 1, 6.0), seed).carve.phases_used;
    colors_t2 +=
        run_schedule(g, theorem2_schedule(n, 1, 6.0), seed).carve.phases_used;
  }
  EXPECT_LT(colors_t2, colors_t1);
}

TEST(Multistage, BoundsPopulated) {
  const Graph g = make_path(100);
  const DecompositionRun run =
      run_schedule(g, theorem2_schedule(g.num_vertices(), 3, 6.0), 1);
  EXPECT_DOUBLE_EQ(run.bounds.strong_diameter, 4.0);
  EXPECT_NEAR(run.bounds.colors, 4.0 * 3 * std::pow(600.0, 1.0 / 3.0),
              1e-9);
  EXPECT_DOUBLE_EQ(run.bounds.success_probability, 1.0 - 5.0 / 6.0);
}

TEST(Multistage, RejectsBadParameters) {
  EXPECT_THROW(run_schedule(Graph(), theorem2_schedule(1), 1),
               std::invalid_argument);
  EXPECT_THROW(multistage_beta_schedule(100, 0, 6.0),
               std::invalid_argument);
  EXPECT_THROW(multistage_beta_schedule(100, 3, 1.0),
               std::invalid_argument);
}

TEST(Multistage, DeterministicInSeed) {
  const Graph g = make_gnp(90, 0.07, 2);
  const CarveSchedule schedule = theorem2_schedule(g.num_vertices(), 3);
  const DecompositionRun a = run_schedule(g, schedule, 13);
  const DecompositionRun b = run_schedule(g, schedule, 13);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
  }
}

}  // namespace
}  // namespace dsnd
