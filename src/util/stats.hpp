// parsched — lightweight statistics used by the benchmark harness.
//
// Welford running moments, order statistics, and simple linear
// regression (benches fit competitive ratio ~ a*log2(P) + b to quantify
// the Theorem-1 growth rate).
#pragma once

#include <cstddef>
#include <vector>

namespace parsched {

/// Numerically stable running mean / variance (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p-th percentile (0 <= p <= 100) with linear interpolation.
/// Copies and sorts; intended for end-of-run summaries, not hot loops.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Ordinary least squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< coefficient of determination
};

[[nodiscard]] LinearFit linear_fit(const std::vector<double>& x,
                                   const std::vector<double>& y);

}  // namespace parsched
