// The schedule abstraction itself: the theorem factories are the single
// source of truth for betas/bounds, their defaults are the theorems'
// headline parameters, and the schedule totals match the paper's
// formulas.
#include "decomposition/carve_schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(CarveSchedule, Theorem1FactoryMatchesFormulas) {
  const VertexId n = 256;
  const std::int32_t k = 4;
  const double c = 4.0;
  const CarveSchedule s = theorem1_schedule(n, k, c);
  EXPECT_EQ(s.target_phases(), elkin_neiman_target_phases(n, k, c));
  for (const double beta : s.betas) {
    EXPECT_DOUBLE_EQ(beta, elkin_neiman_beta(n, k, c));
  }
  EXPECT_EQ(s.phase_rounds, k);
  EXPECT_DOUBLE_EQ(s.radius_overflow_at, k + 1.0);
  EXPECT_DOUBLE_EQ(s.k, static_cast<double>(k));
  EXPECT_DOUBLE_EQ(s.bounds.strong_diameter, 2.0 * k - 2.0);
  EXPECT_DOUBLE_EQ(s.bounds.colors, static_cast<double>(s.target_phases()));
  EXPECT_DOUBLE_EQ(s.bounds.rounds, k * s.bounds.colors);
  EXPECT_DOUBLE_EQ(s.bounds.success_probability, 1.0 - 3.0 / c);
}

TEST(CarveSchedule, Theorem1AutoKSelectsCeilLogN) {
  const CarveSchedule s = theorem1_schedule(1024, 0, 4.0);
  EXPECT_DOUBLE_EQ(s.k, std::ceil(std::log(1024.0)));
  EXPECT_EQ(s.phase_rounds, static_cast<std::int32_t>(s.k));
}

TEST(CarveSchedule, Theorem2TotalsMatchBetaSchedule) {
  const VertexId n = 256;
  const std::int32_t k = 4;
  const double c = 6.0;
  const CarveSchedule s = theorem2_schedule(n, k, c);
  const auto betas = multistage_beta_schedule(n, k, c);
  ASSERT_EQ(s.betas.size(), betas.size());
  for (std::size_t t = 0; t < betas.size(); ++t) {
    EXPECT_DOUBLE_EQ(s.betas[t], betas[t]) << "phase " << t;
  }
  // Total scheduled phases stay within the theorem's 4k(cn)^{1/k} color
  // budget plus per-stage rounding slack.
  const double cn = c * static_cast<double>(n);
  EXPECT_DOUBLE_EQ(s.bounds.colors, 4.0 * k * std::pow(cn, 1.0 / k));
  EXPECT_LE(static_cast<double>(s.target_phases()),
            s.bounds.colors + std::log(static_cast<double>(n)) + 2.0);
  EXPECT_DOUBLE_EQ(s.bounds.success_probability, 1.0 - 5.0 / c);
  // Stage-decaying: betas never increase across the schedule.
  for (std::size_t t = 1; t < s.betas.size(); ++t) {
    EXPECT_LE(s.betas[t], s.betas[t - 1]);
  }
}

TEST(CarveSchedule, Theorem3RealKRounds) {
  const VertexId n = 100;
  const std::int32_t lambda = 2;
  const double c = 4.0;
  const CarveSchedule s = theorem3_schedule(n, lambda, c);
  const double k = high_radius_k(n, lambda, c);
  // The real-valued k shows up as ceil(k) broadcast rounds per phase and
  // exactly lambda scheduled phases at beta = ln(cn)/k = (cn)^{-1/lambda}.
  EXPECT_DOUBLE_EQ(s.k, k);
  EXPECT_EQ(s.phase_rounds, static_cast<std::int32_t>(std::ceil(k)));
  EXPECT_EQ(s.target_phases(), lambda);
  const double cn = c * static_cast<double>(n);
  for (const double beta : s.betas) {
    EXPECT_NEAR(beta, std::pow(cn, -1.0 / lambda), 1e-12);
  }
  EXPECT_DOUBLE_EQ(s.radius_overflow_at, k + 1.0);
  EXPECT_DOUBLE_EQ(s.bounds.strong_diameter, 2.0 * k);
  EXPECT_DOUBLE_EQ(s.bounds.colors, static_cast<double>(lambda));
  EXPECT_DOUBLE_EQ(s.bounds.rounds, lambda * k);
}

TEST(CarveSchedule, FactoryDefaultsAreTheHeadlineParameters) {
  // k = 0 selects ceil(ln n); c = 4 for Theorems 1 and 3, c = 6 for
  // Theorem 2 (the smallest integers with nontrivial success bounds).
  const VertexId n = 500;
  const CarveSchedule t1 = theorem1_schedule(n);
  EXPECT_EQ(t1.betas, theorem1_schedule(n, 0, 4.0).betas);
  EXPECT_DOUBLE_EQ(t1.k, std::ceil(std::log(500.0)));
  EXPECT_DOUBLE_EQ(t1.c, 4.0);
  const CarveSchedule t2 = theorem2_schedule(n);
  EXPECT_EQ(t2.betas, theorem2_schedule(n, 0, 6.0).betas);
  EXPECT_DOUBLE_EQ(t2.c, 6.0);
  const CarveSchedule t3 = theorem3_schedule(n, 3);
  EXPECT_EQ(t3.betas, theorem3_schedule(n, 3, 4.0).betas);
  EXPECT_DOUBLE_EQ(t3.c, 4.0);
}

TEST(CarveSchedule, RunScheduleAttachesBounds) {
  const Graph g = make_path(60);
  const CarveSchedule s = theorem1_schedule(60, 3, 4.0);
  const DecompositionRun run = run_schedule(g, s, 5);
  EXPECT_DOUBLE_EQ(run.bounds.strong_diameter, s.bounds.strong_diameter);
  EXPECT_DOUBLE_EQ(run.bounds.colors, s.bounds.colors);
  EXPECT_DOUBLE_EQ(run.k, s.k);
  EXPECT_DOUBLE_EQ(run.c, s.c);
  EXPECT_EQ(run.carve.target_phases, s.target_phases());
}

TEST(CarveSchedule, RejectsBadParameters) {
  EXPECT_THROW(theorem1_schedule(0, 3, 4.0), std::invalid_argument);
  EXPECT_THROW(theorem1_schedule(100, -1, 4.0), std::invalid_argument);
  EXPECT_THROW(theorem2_schedule(100, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(theorem3_schedule(100, 0, 4.0), std::invalid_argument);
  CarveSchedule empty;
  EXPECT_THROW(empty.require_runnable(), std::invalid_argument);
  EXPECT_NO_THROW(theorem1_schedule(100, 3, 4.0).require_runnable());
  // c * n < 1 makes ln(cn) and so every Theorem 1 beta negative: the
  // factory builds it, but no runner accepts it.
  EXPECT_THROW(theorem1_schedule(5000, 0, 0.0001).require_runnable(),
               std::invalid_argument);
  CarveSchedule bad = theorem1_schedule(100, 3, 4.0);
  bad.phase_rounds = 0;
  EXPECT_THROW(bad.require_runnable(), std::invalid_argument);
  for (std::int32_t CarveSchedule::*budget :
       {&CarveSchedule::max_retries_per_phase,
        &CarveSchedule::max_run_retries, &CarveSchedule::max_rollbacks}) {
    CarveSchedule negative = theorem1_schedule(100, 3, 4.0);
    negative.*budget = -1;
    EXPECT_THROW(negative.require_runnable(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dsnd
