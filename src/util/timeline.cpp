#include "util/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "check/contract.hpp"

namespace parsched {

void StepFunction::append(double t, double value) {
  if (!times_.empty()) {
    PARSCHED_CHECK(t >= times_.back(),
                   "StepFunction breakpoints must be appended in order");
    if (t == times_.back()) {
      values_.back() = value;
      return;
    }
  }
  times_.push_back(t);
  values_.push_back(value);
}

double StepFunction::value(double t) const {
  if (times_.empty() || t < times_.front()) return 0.0;
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const auto idx = static_cast<std::size_t>(it - times_.begin()) - 1;
  return values_[idx];
}

double StepFunction::integrate(double a, double b) const {
  PARSCHED_CHECK(a <= b, "integration bounds out of order");
  if (times_.empty() || a == b) return 0.0;
  double total = 0.0;
  // Segment [times_[i], next) carries values_[i]; before front it is 0.
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const double seg_lo = times_[i];
    const double seg_hi = (i + 1 < times_.size()) ? times_[i + 1] : b;
    const double lo = std::max(a, seg_lo);
    const double hi = std::min(b, seg_hi);
    if (hi > lo) total += values_[i] * (hi - lo);
    if (seg_lo >= b) break;
  }
  return total;
}

void PiecewiseLinear::append(double t, double value) {
  if (!times_.empty()) {
    PARSCHED_CHECK(t >= times_.back(),
                   "PiecewiseLinear knots must be appended in order");
    if (t == times_.back()) {
      values_.back() = value;
      return;
    }
  }
  times_.push_back(t);
  values_.push_back(value);
}

std::size_t PiecewiseLinear::locate(double t) const {
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

double PiecewiseLinear::value(double t) const {
  if (times_.empty()) return 0.0;
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const std::size_t i = locate(t);
  const double t0 = times_[i];
  const double t1 = times_[i + 1];
  const double frac = (t - t0) / (t1 - t0);
  return values_[i] + frac * (values_[i + 1] - values_[i]);
}

double PiecewiseLinear::right_derivative(double t) const {
  if (times_.size() < 2) return 0.0;
  if (t < times_.front() || t >= times_.back()) return 0.0;
  std::size_t i = locate(t);
  if (i == static_cast<std::size_t>(-1)) i = 0;
  // If t sits exactly on a knot, the right derivative is the next segment's.
  PARSCHED_DCHECK(i + 1 < times_.size());
  const double dt = times_[i + 1] - times_[i];
  return dt > 0.0 ? (values_[i + 1] - values_[i]) / dt : 0.0;
}

double PiecewiseLinear::integrate(double a, double b) const {
  PARSCHED_CHECK(a <= b, "integration bounds out of order");
  if (times_.empty() || a == b) return 0.0;
  auto val = [this](double t) { return value(t); };
  double total = 0.0;
  // Flat extrapolation before the first knot.
  if (a < times_.front()) {
    const double hi = std::min(b, times_.front());
    total += values_.front() * (hi - a);
  }
  for (std::size_t i = 0; i + 1 < times_.size(); ++i) {
    const double lo = std::max(a, times_[i]);
    const double hi = std::min(b, times_[i + 1]);
    if (hi > lo) total += 0.5 * (val(lo) + val(hi)) * (hi - lo);
    if (times_[i] >= b) break;
  }
  // Flat extrapolation after the last knot.
  if (b > times_.back()) {
    const double lo = std::max(a, times_.back());
    total += values_.back() * (b - lo);
  }
  return total;
}

}  // namespace parsched
