// The sampler the decomposition algorithms rely on: EXP(beta), with
// density beta * e^(-beta x). The Elkin–Neiman carve draws its radii from
// it; Linial–Saks's geometric radius is the floor of the same draw at
// beta = -ln p (Pr[floor >= j] = p^j), capped at k - 1. Explicit
// inverse-CDF sampling on top of uniform_unit() keeps results
// reproducible across platforms (std::exponential_distribution is not
// guaranteed to produce identical streams everywhere).
#pragma once

#include "support/rng.hpp"

namespace dsnd {

/// Sample from the exponential distribution EXP(beta) with mean 1/beta.
/// beta must be positive.
double sample_exponential(Xoshiro256ss& rng, double beta);

/// Inverse CDF of EXP(beta) evaluated at u in [0, 1).
double exponential_inverse_cdf(double u, double beta);

}  // namespace dsnd
