#include "support/distributions.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace dsnd {

double exponential_inverse_cdf(double u, double beta) {
  DSND_REQUIRE(beta > 0.0, "exponential rate must be positive");
  DSND_REQUIRE(u >= 0.0 && u < 1.0, "u must lie in [0, 1)");
  return -std::log1p(-u) / beta;
}

double sample_exponential(Xoshiro256ss& rng, double beta) {
  return exponential_inverse_cdf(uniform_unit(rng), beta);
}

}  // namespace dsnd
