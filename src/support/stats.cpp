#include "support/stats.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace dsnd {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Summary::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::min() const { return count_ == 0 ? 0.0 : min_; }

double Summary::max() const { return count_ == 0 ? 0.0 : max_; }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  DSND_REQUIRE(!samples_.empty(), "min of empty sample set");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  DSND_REQUIRE(!samples_.empty(), "max of empty sample set");
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::quantile(double q) const {
  DSND_REQUIRE(!samples_.empty(), "quantile of empty sample set");
  DSND_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must lie in [0, 1]");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(rank, samples_.size() - 1)];
}

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  DSND_REQUIRE(x.size() == y.size(), "fit_linear needs matched vectors");
  DSND_REQUIRE(x.size() >= 2, "fit_linear needs at least two points");
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  if (ss_tot <= 0.0) {
    fit.r_squared = 1.0;
    return fit;
  }
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double err = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += err * err;
  }
  fit.r_squared = 1.0 - ss_res / ss_tot;
  return fit;
}

}  // namespace dsnd
