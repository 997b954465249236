#include "speedup/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "check/contract.hpp"

namespace parsched {

SpeedupCurve SpeedupCurve::fully_parallel() {
  SpeedupCurve c;
  c.kind_ = Kind::kFullyParallel;
  c.alpha_ = 1.0;
  return c;
}

SpeedupCurve SpeedupCurve::sequential() {
  SpeedupCurve c;
  c.kind_ = Kind::kSequential;
  c.alpha_ = 0.0;
  return c;
}

SpeedupCurve SpeedupCurve::power_law(double alpha) {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument("power_law alpha must be in [0, 1]");
  }
  if (alpha == 0.0) return sequential();      // lint: float-eq-ok
  if (alpha == 1.0) return fully_parallel();  // lint: float-eq-ok
  SpeedupCurve c;
  c.kind_ = Kind::kPowerLaw;
  c.alpha_ = alpha;
  return c;
}

SpeedupCurve SpeedupCurve::piecewise_linear(
    std::vector<std::pair<double, double>> knots) {
  for (const auto& [x, y] : knots) {
    if (!std::isfinite(x) || !std::isfinite(y)) {
      throw std::invalid_argument("piecewise curve knots must be finite");
    }
  }
  // Normalize: ensure a leading (1, 1) knot and validate shape.
  if (knots.empty() || knots.front().first > 1.0) {
    knots.insert(knots.begin(), {1.0, 1.0});
  }
  if (knots.front().first != 1.0 ||   // lint: float-eq-ok
      knots.front().second != 1.0) {  // lint: float-eq-ok
    throw std::invalid_argument("piecewise curve must start at (1, 1)");
  }
  double prev_slope = 1.0;  // slope of the [0,1] segment
  for (std::size_t i = 1; i < knots.size(); ++i) {
    const auto [x0, y0] = knots[i - 1];
    const auto [x1, y1] = knots[i];
    if (x1 <= x0) throw std::invalid_argument("knot x must strictly increase");
    if (y1 < y0) throw std::invalid_argument("curve must be nondecreasing");
    const double slope = (y1 - y0) / (x1 - x0);
    if (slope > prev_slope + 1e-12) {
      throw std::invalid_argument("curve must be concave");
    }
    prev_slope = slope;
  }
  SpeedupCurve c;
  c.kind_ = Kind::kPiecewiseLinear;
  c.knots_ = std::make_shared<const std::vector<std::pair<double, double>>>(
      std::move(knots));
  // Conservative alpha estimate at the last knot.
  const auto& ks = *c.knots_;
  const auto [xl, yl] = ks.back();
  c.alpha_ = (xl > 1.0 && yl > 0.0) ? std::log(yl) / std::log(xl) : 0.0;
  c.alpha_ = std::clamp(c.alpha_, 0.0, 1.0);
  return c;
}

double SpeedupCurve::rate(double x) const {
  PARSCHED_DCHECK(x >= 0.0, "negative processor share");
  if (x <= 1.0) return x;  // all curves agree with Γ(x) = x on [0, 1]
  switch (kind_) {
    case Kind::kFullyParallel:
      return x;
    case Kind::kSequential:
      return 1.0;
    case Kind::kPowerLaw:
      return std::pow(x, alpha_);
    case Kind::kPiecewiseLinear: {
      const auto& ks = *knots_;
      // Find the segment containing x; extrapolate with last slope beyond.
      for (std::size_t i = 1; i < ks.size(); ++i) {
        if (x <= ks[i].first) {
          const auto [x0, y0] = ks[i - 1];
          const auto [x1, y1] = ks[i];
          return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
      }
      if (ks.size() == 1) return 1.0;  // single knot (1,1): flat beyond
      const auto [x0, y0] = ks[ks.size() - 2];
      const auto [x1, y1] = ks.back();
      const double slope = (y1 - y0) / (x1 - x0);
      return y1 + slope * (x - x1);
    }
  }
  return 0.0;  // unreachable
}

double SpeedupCurve::marginal(double k) const {
  PARSCHED_DCHECK(k >= 0.0, "negative processor count");
  return rate(k + 1.0) - rate(k);
}

double SpeedupCurve::inverse(double g) const {
  PARSCHED_DCHECK(g >= 0.0, "negative target rate");
  if (g <= 1.0) return g;  // Γ(x) = x on [0, 1]
  switch (kind_) {
    case Kind::kFullyParallel:
      return g;
    case Kind::kSequential:
      throw std::domain_error("sequential curve never exceeds rate 1");
    case Kind::kPowerLaw:
      return std::pow(g, 1.0 / alpha_);
    case Kind::kPiecewiseLinear: {
      // Monotone piecewise-linear inversion via bisection over segments.
      const auto& ks = *knots_;
      for (std::size_t i = 1; i < ks.size(); ++i) {
        if (g <= ks[i].second) {
          const auto [x0, y0] = ks[i - 1];
          const auto [x1, y1] = ks[i];
          if (y1 == y0) return x0;
          return x0 + (x1 - x0) * (g - y0) / (y1 - y0);
        }
      }
      if (ks.size() < 2) {
        throw std::domain_error("flat curve never exceeds rate 1");
      }
      const auto [x0, y0] = ks[ks.size() - 2];
      const auto [x1, y1] = ks.back();
      const double slope = (y1 - y0) / (x1 - x0);
      if (slope <= 0.0) {
        throw std::domain_error("flat tail never reaches requested rate");
      }
      return x1 + (g - y1) / slope;
    }
  }
  return 0.0;  // unreachable
}

double SpeedupCurve::alpha() const { return alpha_; }

const std::vector<std::pair<double, double>>& SpeedupCurve::knots() const {
  static const std::vector<std::pair<double, double>> kEmpty;
  return knots_ ? *knots_ : kEmpty;
}

std::string SpeedupCurve::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kFullyParallel:
      os << "parallel";
      break;
    case Kind::kSequential:
      os << "sequential";
      break;
    case Kind::kPowerLaw:
      os << "pow(" << alpha_ << ")";
      break;
    case Kind::kPiecewiseLinear:
      os << "pwl[" << knots_->size() << " knots]";
      break;
  }
  return os.str();
}

bool operator==(const SpeedupCurve& a, const SpeedupCurve& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case SpeedupCurve::Kind::kFullyParallel:
    case SpeedupCurve::Kind::kSequential:
      return true;
    case SpeedupCurve::Kind::kPowerLaw:
      return a.alpha_ == b.alpha_;
    case SpeedupCurve::Kind::kPiecewiseLinear:
      return *a.knots_ == *b.knots_;
  }
  return false;
}

bool is_valid_speedup_curve(const SpeedupCurve& c, double x_max, int samples,
                            double tol) {
  if (c.rate(0.0) != 0.0) return false;  // lint: float-eq-ok
  // Γ(x) = x on [0, 1].
  for (int i = 0; i <= 16; ++i) {
    const double x = static_cast<double>(i) / 16.0;
    if (std::fabs(c.rate(x) - x) > tol) return false;
  }
  // Nondecreasing and concave by sampling on [0, x_max]. Non-finite
  // samples must be rejected explicitly first: NaN fails *every*
  // comparison, so a NaN y would sail through both the monotonicity and
  // concavity checks below and validate a garbage curve.
  double prev_x = 0.0, prev_y = 0.0;
  double prev_slope = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= samples; ++i) {
    const double x = x_max * static_cast<double>(i) / samples;
    const double y = c.rate(x);
    if (!std::isfinite(y)) return false;
    if (y + tol < prev_y) return false;
    const double slope = (y - prev_y) / (x - prev_x);
    if (slope > prev_slope + 1e-6) return false;
    prev_x = x;
    prev_y = y;
    prev_slope = slope;
  }
  return true;
}

bool proposition1_holds(const SpeedupCurve& c, double B, double C,
                        double tol) {
  PARSCHED_CHECK(B >= C && C > 0.0, "Proposition 1 needs B >= C > 0");
  return c.rate(B) / c.rate(C) <= B / C + tol;
}

}  // namespace parsched
