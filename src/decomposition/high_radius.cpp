#include "decomposition/high_radius.hpp"

#include <cmath>
#include <string>

#include "support/assert.hpp"

namespace dsnd {

double high_radius_k(VertexId n, std::int32_t lambda, double c) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(lambda >= 1, "lambda must be positive");
  DSND_REQUIRE(c > 0.0, "c must be positive");
  const double cn = c * static_cast<double>(n);
  return std::pow(cn, 1.0 / static_cast<double>(lambda)) * std::log(cn);
}

CarveSchedule theorem3_schedule(VertexId n, std::int32_t lambda, double c) {
  const double k = high_radius_k(n, lambda, c);
  const double cn = c * static_cast<double>(n);
  // beta = ln(cn)/k = (cn)^{-1/lambda}: per-phase join probability
  // e^{-beta} is a constant close to 1, so lambda phases suffice.
  const double beta = std::log(cn) / k;

  CarveSchedule schedule;
  schedule.name = "theorem3(lambda=" + std::to_string(lambda) + ")";
  schedule.betas.assign(static_cast<std::size_t>(lambda), beta);
  schedule.phase_rounds = static_cast<std::int32_t>(std::ceil(k));
  schedule.radius_overflow_at = k + 1.0;
  schedule.k = k;
  schedule.c = c;
  schedule.bounds.strong_diameter = 2.0 * k;  // paper: 2 (cn)^{1/λ} ln(cn)
  schedule.bounds.colors = static_cast<double>(lambda);
  schedule.bounds.rounds = static_cast<double>(lambda) * k;
  schedule.bounds.success_probability = 1.0 - 3.0 / c;
  return schedule;
}

}  // namespace dsnd
