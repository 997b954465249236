// Unit + property tests for speedup curves.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "speedup/curve.hpp"
#include "util/rng.hpp"

namespace parsched {
namespace {

TEST(Curve, FullyParallelIsIdentity) {
  const auto c = SpeedupCurve::fully_parallel();
  EXPECT_DOUBLE_EQ(c.rate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.rate(0.5), 0.5);
  EXPECT_DOUBLE_EQ(c.rate(7.0), 7.0);
  EXPECT_DOUBLE_EQ(c.alpha(), 1.0);
}

TEST(Curve, SequentialSaturatesAtOne) {
  const auto c = SpeedupCurve::sequential();
  EXPECT_DOUBLE_EQ(c.rate(0.5), 0.5);
  EXPECT_DOUBLE_EQ(c.rate(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.rate(64.0), 1.0);
  EXPECT_DOUBLE_EQ(c.alpha(), 0.0);
}

TEST(Curve, PowerLawMatchesPaperModel) {
  const auto c = SpeedupCurve::power_law(0.5);
  EXPECT_DOUBLE_EQ(c.rate(0.25), 0.25);  // Γ(x) = x for x <= 1
  EXPECT_DOUBLE_EQ(c.rate(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.rate(4.0), 2.0);  // 4^{0.5}
  EXPECT_DOUBLE_EQ(c.rate(16.0), 4.0);
  EXPECT_DOUBLE_EQ(c.alpha(), 0.5);
}

TEST(Curve, PowerLawBoundariesDegrade) {
  EXPECT_EQ(SpeedupCurve::power_law(0.0).kind(),
            SpeedupCurve::Kind::kSequential);
  EXPECT_EQ(SpeedupCurve::power_law(1.0).kind(),
            SpeedupCurve::Kind::kFullyParallel);
  EXPECT_THROW((void)SpeedupCurve::power_law(1.5), std::invalid_argument);
  EXPECT_THROW((void)SpeedupCurve::power_law(-0.1), std::invalid_argument);
}

TEST(Curve, MarginalIsDecreasing) {
  const auto c = SpeedupCurve::power_law(0.6);
  double prev = c.marginal(0.0);
  for (int k = 1; k < 32; ++k) {
    const double cur = c.marginal(static_cast<double>(k));
    EXPECT_LE(cur, prev + 1e-12) << "marginal not decreasing at k=" << k;
    prev = cur;
  }
}

TEST(Curve, InverseRoundTrips) {
  const auto c = SpeedupCurve::power_law(0.7);
  for (double x : {0.3, 1.0, 2.0, 10.0, 100.0}) {
    EXPECT_NEAR(c.inverse(c.rate(x)), x, 1e-9 * x);
  }
  EXPECT_THROW((void)SpeedupCurve::sequential().inverse(2.0),
               std::domain_error);
}

TEST(Curve, PiecewiseLinearInterpolatesKnots) {
  const auto c = SpeedupCurve::piecewise_linear({{2.0, 1.8}, {4.0, 2.4}});
  EXPECT_DOUBLE_EQ(c.rate(1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.rate(2.0), 1.8);
  EXPECT_DOUBLE_EQ(c.rate(3.0), 2.1);
  EXPECT_DOUBLE_EQ(c.rate(4.0), 2.4);
  // Beyond last knot: extrapolate with last slope 0.3.
  EXPECT_NEAR(c.rate(6.0), 2.4 + 0.3 * 2.0, 1e-12);
}

TEST(Curve, PiecewiseLinearRejectsNonConcave) {
  EXPECT_THROW(
      (void)SpeedupCurve::piecewise_linear({{2.0, 1.2}, {3.0, 3.0}}),
      std::invalid_argument);
  EXPECT_THROW((void)SpeedupCurve::piecewise_linear({{2.0, 0.5}}),
               std::invalid_argument);  // decreasing
}

TEST(Curve, PowerLawRejectsNonFiniteAlpha) {
  // NaN fails every comparison, so the range check must be one that a
  // NaN alpha fails.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5,
                           1.5}) {
    EXPECT_THROW((void)SpeedupCurve::power_law(bad), std::invalid_argument);
  }
}

TEST(Curve, ValidityChecker) {
  EXPECT_TRUE(is_valid_speedup_curve(SpeedupCurve::fully_parallel()));
  EXPECT_TRUE(is_valid_speedup_curve(SpeedupCurve::sequential()));
  EXPECT_TRUE(is_valid_speedup_curve(SpeedupCurve::power_law(0.3)));
  EXPECT_TRUE(is_valid_speedup_curve(SpeedupCurve::power_law(0.9)));
  EXPECT_TRUE(is_valid_speedup_curve(
      SpeedupCurve::piecewise_linear({{2.0, 1.5}, {8.0, 3.0}})));
}

TEST(Curve, ValidityCheckerRejectsNonFiniteRates) {
  // NaN fails every comparison, so a non-finite rate would sail through
  // the validator's monotonicity/concavity checks unless it is rejected
  // explicitly. piecewise_linear refuses non-finite knots at
  // construction, so the validator's own check is driven through an
  // infinite sampling range (rate(inf) = inf, and the slope inf/inf is
  // NaN).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)SpeedupCurve::piecewise_linear({{2.0, nan}}),
               std::invalid_argument);
  EXPECT_THROW((void)SpeedupCurve::piecewise_linear({{inf, 2.0}}),
               std::invalid_argument);
  EXPECT_FALSE(is_valid_speedup_curve(SpeedupCurve::fully_parallel(), inf));
}

TEST(Curve, EqualityAndToString) {
  EXPECT_EQ(SpeedupCurve::power_law(0.5), SpeedupCurve::power_law(0.5));
  EXPECT_FALSE(SpeedupCurve::power_law(0.5) == SpeedupCurve::power_law(0.6));
  EXPECT_EQ(SpeedupCurve::sequential().to_string(), "sequential");
  EXPECT_NE(SpeedupCurve::power_law(0.5).to_string().find("pow"),
            std::string::npos);
}

// Property sweep: Proposition 1 (Γ(B)/Γ(C) <= B/C for B >= C) across the
// whole curve family and random arguments.
class Proposition1Test : public ::testing::TestWithParam<double> {};

TEST_P(Proposition1Test, HoldsForRandomArguments) {
  const double alpha = GetParam();
  const auto c = SpeedupCurve::power_law(alpha);
  Rng rng(static_cast<std::uint64_t>(alpha * 1000) + 5);
  for (int i = 0; i < 2000; ++i) {
    const double C = rng.uniform(1e-3, 64.0);
    const double B = C + rng.uniform(0.0, 64.0);
    EXPECT_TRUE(proposition1_holds(c, B, C))
        << "alpha=" << alpha << " B=" << B << " C=" << C;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, Proposition1Test,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

// Property sweep: concavity + monotonicity of the power-law family at
// random sample points.
class CurveShapeTest : public ::testing::TestWithParam<double> {};

TEST_P(CurveShapeTest, MonotoneAndConcave) {
  const auto c = SpeedupCurve::power_law(GetParam());
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.0, 128.0);
    const double y = x + rng.uniform(0.0, 16.0);
    EXPECT_LE(c.rate(x), c.rate(y) + 1e-12);
    // Midpoint concavity.
    const double mid = 0.5 * (x + y);
    EXPECT_GE(c.rate(mid) + 1e-9,
              0.5 * (c.rate(x) + c.rate(y)));
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, CurveShapeTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace parsched
