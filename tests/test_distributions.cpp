#include "support/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace dsnd {
namespace {

TEST(Exponential, InverseCdfMatchesClosedForm) {
  // F^{-1}(u) = -ln(1-u)/beta.
  EXPECT_DOUBLE_EQ(exponential_inverse_cdf(0.0, 2.0), 0.0);
  EXPECT_NEAR(exponential_inverse_cdf(0.5, 1.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(exponential_inverse_cdf(0.9, 0.5), -std::log(0.1) / 0.5,
              1e-12);
}

TEST(Exponential, RejectsBadParameters) {
  EXPECT_THROW(exponential_inverse_cdf(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(exponential_inverse_cdf(0.5, -1.0), std::invalid_argument);
  EXPECT_THROW(exponential_inverse_cdf(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(exponential_inverse_cdf(-0.1, 1.0), std::invalid_argument);
}

TEST(Exponential, SampleMeanIsOneOverBeta) {
  for (double beta : {0.5, 1.0, 3.0}) {
    Xoshiro256ss rng(42);
    double sum = 0.0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) sum += sample_exponential(rng, beta);
    EXPECT_NEAR(sum / samples, 1.0 / beta, 0.02 / beta);
  }
}

TEST(Exponential, SamplesAreNonnegative) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(sample_exponential(rng, 2.0), 0.0);
  }
}

TEST(Exponential, TailProbabilityMatchesTheory) {
  // Pr[X >= t] = e^{-beta t}; this drives Lemma 1 of the paper.
  const double beta = 1.0;
  const double t = 2.0;
  Xoshiro256ss rng(3);
  int over = 0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    if (sample_exponential(rng, beta) >= t) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / samples, std::exp(-beta * t),
              0.005);
}

}  // namespace
}  // namespace dsnd
