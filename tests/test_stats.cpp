#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace dsnd {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, WelfordStableUnderLargeOffset) {
  Summary s;
  const double offset = 1e9;
  for (double x : {1.0, 2.0, 3.0}) s.add(offset + x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.9), 90.0, 1.0);
}

TEST(SampleSet, QuantileAfterInterleavedAdds) {
  SampleSet s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SampleSet, ThrowsOnEmpty) {
  SampleSet s;
  EXPECT_THROW(s.quantile(0.5), std::invalid_argument);
  EXPECT_THROW(s.min(), std::invalid_argument);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHasHighR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(LinearFit, RejectsMismatchedSizes) {
  EXPECT_THROW(fit_linear({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(fit_linear({1.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
