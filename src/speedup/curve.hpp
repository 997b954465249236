// parsched — speedup curves Γ(x).
//
// The paper's model: a job allocated x (possibly fractional) processors
// processes work at rate Γ(x), where Γ is nondecreasing, concave, Γ(0) = 0
// and Γ(x) = x on [0, 1]. The paper's family of *intermediate*
// parallelizability is Γ(x) = x for x <= 1 and Γ(x) = x^α for x >= 1 with
// α in (0, 1); α = 1 is fully parallelizable, α = 0 sequential.
//
// SpeedupCurve is a cheap value type (enum + α + optional shared knot
// vector), so jobs can be copied freely during simulation.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace parsched {

/// A nondecreasing concave speedup curve with Γ(0)=0 and Γ(x)=x on [0,1].
class SpeedupCurve {
 public:
  enum class Kind {
    kFullyParallel,    ///< Γ(x) = x                       (α = 1)
    kSequential,       ///< Γ(x) = min(x, 1)               (α = 0)
    kPowerLaw,         ///< Γ(x) = x for x<=1, x^α for x>=1 (the paper)
    kPiecewiseLinear,  ///< general concave curve, linear on [0,1]
  };

  /// Default: fully parallelizable.
  SpeedupCurve() = default;

  static SpeedupCurve fully_parallel();
  static SpeedupCurve sequential();

  /// The paper's family. Requires alpha in [0, 1]; the boundary values
  /// degrade gracefully to sequential / fully parallel.
  static SpeedupCurve power_law(double alpha);

  /// General concave piecewise-linear curve for x >= 1. `knots` are
  /// (x, Γ(x)) pairs with x >= 1, strictly increasing in x; the curve is
  /// Γ(x) = x on [0,1], interpolates the knots, and is constant-slope beyond
  /// the last knot (slope of last segment). The knot at x = 1 with value 1
  /// is implicit. Throws std::invalid_argument if a knot is not finite or
  /// the result would not be concave or nondecreasing.
  static SpeedupCurve piecewise_linear(std::vector<std::pair<double, double>> knots);

  /// Processing rate with x processors. x must be >= 0.
  [[nodiscard]] double rate(double x) const;

  /// Marginal gain of the (k+1)-th whole processor: Γ(k+1) − Γ(k).
  /// Used by the Section-3 Greedy algorithm.
  [[nodiscard]] double marginal(double k) const;

  /// Inverse: the number of processors needed for rate g (smallest x with
  /// Γ(x) >= g). Requires g >= 0 and achievable for power-law/parallel;
  /// for sequential curves g must be <= 1.
  [[nodiscard]] double inverse(double g) const;

  [[nodiscard]] Kind kind() const { return kind_; }

  /// The parallelizability exponent. 1 for fully parallel, 0 for
  /// sequential, α for power-law; for piecewise-linear curves this is a
  /// conservative upper bound log(Γ(x))/log(x) evaluated at the last knot.
  [[nodiscard]] double alpha() const;

  [[nodiscard]] std::string to_string() const;

  /// Knots of a piecewise-linear curve (including the implicit (1, 1)
  /// lead); empty for the closed-form kinds.
  [[nodiscard]] const std::vector<std::pair<double, double>>& knots() const;

  friend bool operator==(const SpeedupCurve& a, const SpeedupCurve& b);

 private:
  Kind kind_ = Kind::kFullyParallel;
  double alpha_ = 1.0;
  // (x, Γ(x)) knots for kPiecewiseLinear, x >= 1, leading knot (1, 1).
  std::shared_ptr<const std::vector<std::pair<double, double>>> knots_;
};

/// Validation used by tests and by Instance construction: samples the curve
/// and checks nondecreasing + concave + Γ(x)=x on [0,1] up to tolerance.
[[nodiscard]] bool is_valid_speedup_curve(const SpeedupCurve& c,
                                          double x_max = 1024.0,
                                          int samples = 2048,
                                          double tol = 1e-9);

/// Proposition 1 of the paper: for B >= C > 0, Γ(B)/Γ(C) <= B/C.
/// Exposed for the property-test suite.
[[nodiscard]] bool proposition1_holds(const SpeedupCurve& c, double B,
                                      double C, double tol = 1e-9);

}  // namespace parsched
