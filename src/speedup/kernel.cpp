#include "speedup/kernel.hpp"

#include <cmath>

#include "check/contract.hpp"
#include "speedup/curve.hpp"

namespace parsched::speedup {

// The flat kind bytes are the numeric values of SpeedupCurve::Kind —
// callers write static_cast<uint8_t>(curve.kind()), and the dispatch
// below depends on the correspondence never drifting.
static_assert(kKindFullyParallel ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kFullyParallel));
static_assert(kKindSequential ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kSequential));
static_assert(kKindPowerLaw ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kPowerLaw));
static_assert(kKindPiecewiseLinear ==
              static_cast<std::uint8_t>(SpeedupCurve::Kind::kPiecewiseLinear));

PARSCHED_HOT void rate_batch(std::span<const std::uint8_t> kinds,
                             std::span<const double> alphas,
                             std::span<const double> xs, double speed,
                             std::span<double> out, PwlRateFn pwl) {
  const std::size_t n = xs.size();
  PARSCHED_DCHECK(kinds.size() == n && alphas.size() == n && out.size() == n,
                  "rate_batch span length mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    PARSCHED_DCHECK(x >= 0.0, "negative processor share");
    double g;
    if (x <= 1.0) {
      g = x;  // all curves agree with Γ(x) = x on [0, 1]
    } else {
      switch (kinds[i]) {
        case kKindFullyParallel:
          g = x;
          break;
        case kKindSequential:
          g = 1.0;
          break;
        case kKindPowerLaw:
          g = std::pow(x, alphas[i]);
          break;
        default:
          PARSCHED_DCHECK(pwl.fn != nullptr,
                          "piecewise-linear element without a fallback");
          g = pwl.fn(pwl.ctx, i, x);
          break;
      }
    }
    out[i] = speed * g;
  }
}

}  // namespace parsched::speedup
