#include "decomposition/multistage.hpp"

#include <cmath>
#include <string>

#include "support/assert.hpp"

namespace dsnd {

std::vector<double> multistage_beta_schedule(VertexId n, std::int32_t k,
                                             double c) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(k >= 1, "k must be positive");
  DSND_REQUIRE(c > 1.0, "c must exceed 1 so every stage keeps beta > 0");
  const double cn = c * static_cast<double>(n);
  const auto stages = static_cast<std::int32_t>(
      std::floor(std::log(std::max<VertexId>(n, 2))));
  std::vector<double> betas;
  for (std::int32_t i = 0; i <= stages; ++i) {
    // Stage i: s_i phases with beta_i = ln(cn/e^i)/k = (ln(cn) - i)/k.
    const double stage_cn = cn / std::exp(static_cast<double>(i));
    const double beta = std::log(stage_cn) / static_cast<double>(k);
    DSND_CHECK(beta > 0.0, "stage beta must stay positive");
    const auto phases = static_cast<std::int32_t>(std::ceil(
        2.0 * std::pow(stage_cn, 1.0 / static_cast<double>(k))));
    for (std::int32_t t = 0; t < phases; ++t) betas.push_back(beta);
  }
  return betas;
}

CarveSchedule theorem2_schedule(VertexId n, std::int32_t k, double c) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  const std::int32_t rk = resolve_k(n, k);
  const double cn = c * static_cast<double>(n);

  CarveSchedule schedule;
  schedule.name = "theorem2(k=" + std::to_string(rk) + ")";
  schedule.betas = multistage_beta_schedule(n, rk, c);
  schedule.phase_rounds = rk;
  schedule.radius_overflow_at = static_cast<double>(rk) + 1.0;
  schedule.k = static_cast<double>(rk);
  schedule.c = c;
  schedule.bounds.strong_diameter = 2.0 * rk - 2.0;
  schedule.bounds.colors =
      4.0 * rk * std::pow(cn, 1.0 / static_cast<double>(rk));
  // Rounds: (k+1) simulated rounds per phase over at most `colors` phases.
  schedule.bounds.rounds =
      (static_cast<double>(rk) + 1.0) * schedule.bounds.colors;
  schedule.bounds.success_probability = 1.0 - 5.0 / c;
  return schedule;
}

}  // namespace dsnd
