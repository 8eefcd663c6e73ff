// Summary statistics used by the experiment harnesses: streaming
// mean/variance (Welford), min/max, and exact quantiles over stored
// samples.
//
// The benches aggregate per-seed measurements (diameters, colors,
// rounds) with Summary before printing measured-vs-bound tables, so the
// accumulator must be exact on counts and numerically stable on means —
// hence Welford's algorithm rather than naive sum-of-squares. Quantiles
// store their samples and sort on demand; they are for offline reporting,
// not hot paths.
#pragma once

#include <cstddef>
#include <vector>

namespace dsnd {

/// Streaming accumulator: O(1) memory, numerically stable mean/variance.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Accumulator that also stores samples so quantiles can be extracted.
class SampleSet {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Exact quantile by nearest-rank on the sorted samples; q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Ordinary least squares fit y = a + b*x; returns {a, b, r_squared}.
/// Used by the scaling benches to check O(log n) / O(log^2 n) shapes.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

}  // namespace dsnd
