#include "decomposition/elkin_neiman.hpp"

#include <cmath>
#include <string>

#include "support/assert.hpp"

namespace dsnd {

std::int32_t resolve_k(VertexId n, std::int32_t k) {
  DSND_REQUIRE(k >= 0, "k must be nonnegative (0 = auto)");
  if (k > 0) return k;
  const double ln_n = std::log(std::max<VertexId>(n, 2));
  return std::max<std::int32_t>(1,
                                static_cast<std::int32_t>(std::ceil(ln_n)));
}

double elkin_neiman_beta(VertexId n, std::int32_t k, double c) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(k >= 1, "k must be positive");
  DSND_REQUIRE(c > 0.0, "c must be positive");
  return std::log(c * static_cast<double>(n)) / static_cast<double>(k);
}

std::int32_t elkin_neiman_target_phases(VertexId n, std::int32_t k,
                                        double c) {
  const double cn = c * static_cast<double>(n);
  const double lambda =
      std::pow(cn, 1.0 / static_cast<double>(k)) * std::log(cn);
  return std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::ceil(lambda)));
}

CarveSchedule theorem1_schedule(VertexId n, std::int32_t k, double c) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(c > 0.0, "c must be positive");
  const std::int32_t rk = resolve_k(n, k);
  const std::int32_t lambda = elkin_neiman_target_phases(n, rk, c);

  CarveSchedule schedule;
  schedule.name = "theorem1(k=" + std::to_string(rk) + ")";
  schedule.betas.assign(static_cast<std::size_t>(lambda),
                        elkin_neiman_beta(n, rk, c));
  schedule.phase_rounds = rk;
  schedule.radius_overflow_at = static_cast<double>(rk) + 1.0;
  schedule.k = static_cast<double>(rk);
  schedule.c = c;
  schedule.bounds.strong_diameter = 2.0 * rk - 2.0;
  schedule.bounds.colors = static_cast<double>(lambda);
  schedule.bounds.rounds =
      static_cast<double>(rk) * static_cast<double>(lambda);
  schedule.bounds.success_probability = 1.0 - 3.0 / c;
  return schedule;
}

}  // namespace dsnd
