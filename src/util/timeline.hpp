// parsched — piecewise functions of time.
//
// Two small append-only containers shared across the library:
//  * StepFunction      — right-continuous piecewise-constant values, used for
//                        alive-job counts |A(t)| and machine usage;
//  * PiecewiseLinear   — continuous piecewise-linear values, used for
//                        per-job remaining-work trajectories and for the
//                        potential function Phi(t).
// Both support exact integration, which is what the local-competitiveness
// and potential-function verifiers operate on.
#pragma once

#include <cstddef>
#include <vector>

namespace parsched {

/// Right-continuous step function: value(t) = v_i for t in [t_i, t_{i+1}).
/// Breakpoints must be appended in nondecreasing time order; appending a
/// point at an existing time overwrites the value at that time.
class StepFunction {
 public:
  void append(double t, double value);

  [[nodiscard]] bool empty() const { return times_.empty(); }
  [[nodiscard]] std::size_t size() const { return times_.size(); }

  /// Value at time t (value of the last breakpoint with time <= t).
  /// Before the first breakpoint the function is 0.
  [[nodiscard]] double value(double t) const;

  /// Exact integral over [a, b].
  [[nodiscard]] double integrate(double a, double b) const;

  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Continuous piecewise-linear function given by (t_i, v_i) knots with
/// linear interpolation; constant extrapolation outside the knot range.
class PiecewiseLinear {
 public:
  void append(double t, double value);

  [[nodiscard]] bool empty() const { return times_.empty(); }
  [[nodiscard]] std::size_t size() const { return times_.size(); }

  [[nodiscard]] double value(double t) const;

  /// Right derivative at t (0 outside the knot range and at the last knot).
  [[nodiscard]] double right_derivative(double t) const;

  /// Exact integral over [a, b].
  [[nodiscard]] double integrate(double a, double b) const;

  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  /// Index of the last knot with time <= t, or npos when t precedes all.
  [[nodiscard]] std::size_t locate(double t) const;

  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace parsched
