// parsched — math helpers shared across the library.
//
// Everything here is small, header-only and allocation-free: float
// comparisons with mixed absolute/relative tolerance, the size-class index
// used by the Leonardi–Raz style analysis (Section 2.2 of the paper), and
// the closed-form quantities from the paper's lower-bound constructions,
// and the exact serial sum of n copies of one double.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "check/contract.hpp"

namespace parsched {

/// Positive infinity for time-like quantities.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Default tolerance used to group simultaneous events and compare work.
inline constexpr double kEps = 1e-9;

/// True when |a - b| <= tol * max(1, |a|, |b|): mixed absolute/relative.
[[nodiscard]] inline bool approx_eq(double a, double b, double tol = kEps) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Size-class index of the paper's analysis: a job with remaining work
/// w in [2^k, 2^{k+1}) is in class k; w < 1 is the special class -1.
[[nodiscard]] inline int size_class(double remaining) {
  if (remaining < 1.0) return -1;
  return static_cast<int>(std::floor(std::log2(remaining)));
}

/// Number of initial job classes for sizes in [1, P]: ceil(log2 P), min 1.
[[nodiscard]] inline int num_size_classes(double P) {
  PARSCHED_CHECK(P >= 1.0, "need P >= 1");
  return std::max(1, static_cast<int>(std::ceil(std::log2(P))));
}

/// log base (1/r); used throughout the Section-4 adversary.
[[nodiscard]] inline double log_inv(double r, double x) {
  PARSCHED_CHECK(r > 0.0 && r < 1.0 && x > 0.0,
                 "log_inv needs r in (0, 1) and x > 0");
  return std::log(x) / std::log(1.0 / r);
}

/// Closed-form quantities of the Section-4 lower-bound construction for
/// intermediate parallelizability exponent alpha (epsilon = 1 - alpha).
struct AdversaryConstants {
  double alpha = 0.0;    ///< parallelizability exponent
  double epsilon = 1.0;  ///< 1 - alpha
  double r = 0.25;       ///< phase length reduction factor, r = (1 - 2^-eps)/2
  double kappa = 1.0;    ///< (2^eps - 1)/(2^eps + 1), the "slack" constant
};

[[nodiscard]] inline AdversaryConstants adversary_constants(double alpha) {
  PARSCHED_CHECK(alpha >= 0.0 && alpha < 1.0,
                 "adversary constants need alpha in [0, 1)");
  AdversaryConstants c;
  c.alpha = alpha;
  c.epsilon = 1.0 - alpha;
  const double two_eps = std::exp2(c.epsilon);
  c.r = 0.5 * (1.0 - 1.0 / two_eps);
  c.kappa = (two_eps - 1.0) / (two_eps + 1.0);
  return c;
}

/// Theorem 1's competitive-ratio envelope (up to the O(1)): 4^{1/(1-a)} log2 P.
[[nodiscard]] inline double theorem1_envelope(double alpha, double P) {
  PARSCHED_CHECK(alpha < 1.0 && P >= 2.0,
                 "Theorem 1 envelope needs alpha < 1 and P >= 2");
  return std::pow(4.0, 1.0 / (1.0 - alpha)) * std::log2(P);
}

/// Round x to the nearest integer and assert it was already integral.
[[nodiscard]] inline std::int64_t round_integral(double x, double tol = 1e-6) {
  const double r = std::round(x);
  PARSCHED_CHECK(std::fabs(x - r) <= tol, "expected an integral value");
  return static_cast<std::int64_t>(r);
}

/// s + s + ... + s (n terms), added one at a time from +0.0 in
/// round-to-nearest-even, bit for bit: the serial sum of n copies of s,
/// in O(log n) steps instead of n.
///
/// Write a positive finite double x as M·2^E with M < 2^53 an integer:
/// the significand with its hidden bit, E = max(biased exponent, 1) -
/// 1075, so subnormals and the lowest normal binade share the fixed grid
/// 2^-1074. A partial sum a = A·2^E then stays on its grid while it is
/// below 2^(E+53), and s = (q + ρ)·2^E with q an integer and ρ in [0, 1)
/// (a >= s, so s's grid is no coarser). When A + q < 2^53, fl(a + s) is
/// exact up to rounding (q + ρ) to the grid: it adds q grid units if
/// ρ < 1/2 and q + 1 if ρ > 1/2; a tie goes to the even one of A + q and
/// A + q + 1. After one step A is even on a tie, so from the second step
/// on the increment is constant until the sum leaves the binade: that
/// many steps are one multiplication. A step that leaves the binade is
/// one plain addition. So the loop runs twice per binade the sum
/// crosses, and it crosses at most log2(n) + 2 of them.
///
/// Negative s is the mirror image (rounding to nearest is symmetric);
/// NaN and ±inf propagate as in the serial loop, and ±0.0 sums to +0.0.
[[nodiscard]] inline double uniform_sum(double s, std::uint64_t n) {
  if (n == 0 || s == 0.0) return 0.0;  // lint: float-eq-ok
  if (!(s > 0.0)) return std::isnan(s) ? s : -uniform_sum(-s, n);
  if (std::isinf(s)) return s;
  const auto split = [](double x, std::uint64_t& m, int& e) {
    const auto b = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>(b >> 52);
    m = b & ((std::uint64_t{1} << 52) - 1);
    if (biased != 0) m |= std::uint64_t{1} << 52;
    e = std::max(biased, 1) - 1075;
  };
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  std::uint64_t ms = 0;
  int es = 0;
  split(s, ms, es);
  double a = s;  // 0.0 + s
  --n;
  while (n > 0 && std::isfinite(a)) {
    std::uint64_t A = 0;
    int e = 0;
    split(a, A, e);
    // q and the sign of ρ - 1/2 (cmp), from the bits of s shifted to a's
    // grid; a shift past 53 leaves q = 0 and ρ < 1/2.
    const int shift = e - es;
    std::uint64_t q = 0;
    int cmp = -1;
    if (shift == 0) {
      q = ms;
    } else if (shift <= 53) {
      q = ms >> shift;
      const std::uint64_t rem = ms & ((std::uint64_t{1} << shift) - 1);
      const std::uint64_t half = std::uint64_t{1} << (shift - 1);
      cmp = rem < half ? -1 : (rem > half ? 1 : 0);
    }
    if (A + q > kTop) {  // this step leaves the binade
      a += s;
      --n;
      continue;
    }
    const auto step = [q, cmp](std::uint64_t at) {
      return cmp < 0 ? q : (cmp > 0 ? q + 1 : q + ((at + q) & 1));
    };
    A += step(A);
    --n;
    if (A + q <= kTop) {  // the next step starts in this binade too
      const std::uint64_t d = step(A);
      const std::uint64_t t =
          d == 0 ? n : std::min<std::uint64_t>(n, (kTop - q - A) / d + 1);
      A += t * d;
      n -= t;
    }
    a = std::ldexp(static_cast<double>(A), e);
  }
  return a;
}

}  // namespace parsched
