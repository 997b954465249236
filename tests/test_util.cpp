// Unit tests for the util substrate: math helpers, the ordered scaled
// sum, RNG, statistics, tables, options, and piecewise timelines.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <cstdio>
#include <fstream>
#include <tuple>
#include <vector>

#include "util/mathx.hpp"
#include "util/options.hpp"
#include "util/ordered_sum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timeline.hpp"

namespace parsched {
namespace {

// ---------------------------------------------------------------- mathx

TEST(Mathx, ApproxEqBasics) {
  EXPECT_TRUE(approx_eq(1.0, 1.0));
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_eq(1.0, 1.001));
  EXPECT_TRUE(approx_eq(1e12, 1e12 * (1.0 + 1e-12)));
}

TEST(Mathx, SizeClassMatchesPaperDefinition) {
  // Remaining in [2^k, 2^{k+1}) -> class k; < 1 -> class -1.
  EXPECT_EQ(size_class(0.5), -1);
  EXPECT_EQ(size_class(0.999), -1);
  EXPECT_EQ(size_class(1.0), 0);
  EXPECT_EQ(size_class(1.999), 0);
  EXPECT_EQ(size_class(2.0), 1);
  EXPECT_EQ(size_class(3.999), 1);
  EXPECT_EQ(size_class(4.0), 2);
  EXPECT_EQ(size_class(1024.0), 10);
}

TEST(Mathx, NumSizeClasses) {
  EXPECT_EQ(num_size_classes(1.0), 1);
  EXPECT_EQ(num_size_classes(2.0), 1);
  EXPECT_EQ(num_size_classes(8.0), 3);
  EXPECT_EQ(num_size_classes(9.0), 4);
}

TEST(Mathx, LogInv) {
  EXPECT_NEAR(log_inv(0.25, 16.0), 2.0, 1e-12);  // log_4 16
  EXPECT_NEAR(log_inv(0.5, 8.0), 3.0, 1e-12);    // log_2 8
}

TEST(Mathx, AdversaryConstantsAlphaHalf) {
  const auto c = adversary_constants(0.5);
  EXPECT_DOUBLE_EQ(c.epsilon, 0.5);
  // r = (1 - 2^{-1/2}) / 2.
  EXPECT_NEAR(c.r, 0.5 * (1.0 - 1.0 / std::sqrt(2.0)), 1e-15);
  const double two_eps = std::sqrt(2.0);
  EXPECT_NEAR(c.kappa, (two_eps - 1.0) / (two_eps + 1.0), 1e-15);
}

TEST(Mathx, AdversaryConstantsSequential) {
  const auto c = adversary_constants(0.0);
  EXPECT_DOUBLE_EQ(c.epsilon, 1.0);
  EXPECT_NEAR(c.r, 0.25, 1e-15);
  EXPECT_NEAR(c.kappa, 1.0 / 3.0, 1e-15);
}

TEST(Mathx, Theorem1EnvelopeGrowsWithAlphaAndP) {
  EXPECT_LT(theorem1_envelope(0.5, 64.0), theorem1_envelope(0.9, 64.0));
  EXPECT_LT(theorem1_envelope(0.5, 64.0), theorem1_envelope(0.5, 1024.0));
  // alpha = 0.5 -> 4^2 = 16; log2(64) = 6.
  EXPECT_NEAR(theorem1_envelope(0.5, 64.0), 16.0 * 6.0, 1e-9);
}

TEST(Mathx, RoundIntegral) {
  EXPECT_EQ(round_integral(4.0), 4);
  EXPECT_EQ(round_integral(4.0 + 1e-9), 4);
  EXPECT_EQ(round_integral(-3.0), -3);
}

// ---------------------------------------------------------- uniform_sum

/// The oracle: s + s + ... + s (n terms), one addition at a time.
double repeated_sum(double s, std::uint64_t n) {
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) sum += s;
  return sum;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// uniform_sum(s, k) against the serial sum at checkpoints along one
/// pass of n additions: every k <= 64, then about every doubling, and n.
void expect_matches_serial(double s, std::uint64_t n) {
  double acc = 0.0;
  std::uint64_t next = 1;
  for (std::uint64_t k = 1; k <= n; ++k) {
    acc += s;
    if (k != next && k != n) continue;
    ASSERT_EQ(bits(uniform_sum(s, k)), bits(acc))
        << std::hexfloat << "s=" << s << " k=" << k;
    next = next < 64 ? next + 1 : 2 * next + next % 7;
  }
}

TEST(UniformSum, MatchesTheSerialSumOnEquipartitionShares) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t n = 1; n <= 100; ++n) ns.push_back(n);
  for (const std::uint64_t n :
       {127u, 255u, 1000u, 1023u, 4099u, 65537u, 100000u, 1000000u,
        2300000u, 2500000u, 3000000u}) {
    ns.push_back(n);
  }
  for (int m = 1; m <= 64; ++m) {
    for (const std::uint64_t n : ns) {
      ASSERT_EQ(bits(uniform_sum(m / static_cast<double>(n), n)),
                bits(repeated_sum(m / static_cast<double>(n), n)))
          << "m=" << m << " n=" << n;
    }
  }
  for (const int m : {1, 3, 16, 64}) {
    expect_matches_serial(m / 1e7, 10'000'000);
  }
}

TEST(UniformSum, MatchesTheSerialSumOnRandomShares) {
  std::mt19937_64 rng(0x5eed);
  // Any finite positive double (a random bit pattern), then shares in
  // (0, 1), each along one pass.
  for (int i = 0; i < 2000; ++i) {
    const double s = std::bit_cast<double>(rng() >> 1);
    if (!std::isfinite(s)) continue;
    expect_matches_serial(s, 1 + rng() % 20000);
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double s = unit(rng);
    expect_matches_serial(s, 1 + rng() % 100000);
    expect_matches_serial(-s, 1 + rng() % 1000);  // the mirror image
  }
}

TEST(UniformSum, PowersOfTwoZerosAndTheSmallestSubnormal) {
  for (int k = -1074; k <= 8; ++k) expect_matches_serial(std::ldexp(1.0, k), 3000);
  // Subnormal partial sums: a fixed grid, every addition exact.
  expect_matches_serial(0x1p-1074, 10'000'000);
  expect_matches_serial(3 * 0x1p-1074, 100000);
  expect_matches_serial(0x1.fffffffffffffp-1023, 1000);  // largest subnormal
  for (const double zero : {0.0, -0.0}) {
    for (const std::uint64_t n : {0u, 1u, 5u, 1000000u}) {
      EXPECT_EQ(bits(uniform_sum(zero, n)), bits(repeated_sum(zero, n)));
    }
  }
  EXPECT_EQ(bits(uniform_sum(0.5, 0)), bits(0.0));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits(uniform_sum(inf, 3)), bits(inf));
  EXPECT_EQ(bits(uniform_sum(-inf, 3)), bits(-inf));
  EXPECT_TRUE(std::isnan(uniform_sum(std::nan(""), 3)));
  // Overflow to +inf on the way, as the serial loop does.
  expect_matches_serial(0x1.8p1023, 10);
}

// ---------------------------------------------------------- ordered_sum

// Counts and crossing positions below cover one and two of the kernel's
// blocks and a partial third.
constexpr std::size_t kSumBlock = ordered_sum::kBlock;

/// The blocked arm and ordered_scaled_sum against the serial loop, bit
/// for bit (a NaN only as a NaN: where two NaNs meet, which payload an
/// addition keeps depends on its operand order). The AVX2 arm runs only
/// where the CPU has it.
void expect_ordered_sum(double acc, const std::vector<double>& q, double dt,
                        const std::string& what) {
  const std::size_t n = q.size();
  const double want = ordered_sum::serial(acc, q.data(), n, dt);
  const auto same = [want](double got) {
    return std::isnan(want) ? std::isnan(got) : bits(got) == bits(want);
  };
  if (ordered_sum::avx2_supported()) {
    EXPECT_TRUE(same(ordered_sum::avx2(acc, q.data(), n, dt)))
        << std::hexfloat << what << " acc=" << acc << " dt=" << dt
        << " n=" << n << " want=" << want
        << " avx2=" << ordered_sum::avx2(acc, q.data(), n, dt);
  }
  EXPECT_TRUE(same(ordered_scaled_sum(acc, q.data(), n, dt)))
      << std::hexfloat << what << " acc=" << acc << " n=" << n;
}

TEST(OrderedSum, SerialArmIsThePlainLoop) {
  const std::vector<double> q = {0.5, 0x1p-60, 3.0, -1.25, 0x1p-1074};
  double acc = 1.0;
  for (const double x : q) acc += x * 0.75;
  EXPECT_EQ(bits(ordered_sum::serial(1.0, q.data(), q.size(), 0.75)),
            bits(acc));
  EXPECT_EQ(bits(ordered_sum::serial(-0.0, q.data(), 0, 0.75)), bits(-0.0));
}

TEST(OrderedSum, TiesAtBothAccumulatorParities) {
  // acc in [1, 2): grid u = 2^-52. A term of u/2 is a tie: from an even
  // sum it rounds down, from an odd one up. The other terms are whole
  // multiples of u or far below u/2, so only the ties decide.
  const double u = 0x1p-52;
  for (const double acc : {1.0, 1.0 + u, 1.5, 1.5 + u}) {
    for (const std::size_t at : {0u, 1u, 7u, 100u, 255u, 256u, 299u}) {
      std::vector<double> q(300, 3.0 * u);
      for (std::size_t i = 0; i < q.size(); i += 3) q[i] = 0x1p-70;
      q[at] = 0.5 * u;
      expect_ordered_sum(acc, q, 1.0, "one tie at " + std::to_string(at));
      // The same through dt: q·dt lands exactly on the tie.
      std::vector<double> scaled = q;
      for (double& x : scaled) x *= 4.0;
      expect_ordered_sum(acc, scaled, 0.25, "scaled tie");
    }
    // Every term a tie (u/2 and 3u/2), and terms just off a tie.
    expect_ordered_sum(acc, std::vector<double>(600, 0.5 * u), 1.0,
                       "all ties");
    expect_ordered_sum(acc, std::vector<double>(600, 1.5 * u), 1.0,
                       "all odd ties");
    expect_ordered_sum(acc, std::vector<double>(600, 0.5 * u + 0x1p-105),
                       1.0, "above a tie");
    expect_ordered_sum(acc, std::vector<double>(600, 0.5 * u - 0x1p-106),
                       1.0, "below a tie");
  }
}

TEST(OrderedSum, BinadeCrossingsMidBlockAndAtTheLastTerm) {
  // Partial sums cross 2.0 after `at` terms of t = 2^-20 each.
  const double t = 0x1p-20;
  const std::size_t n = 2 * kSumBlock + 17;
  for (std::size_t at = 0; at <= n; ++at) {
    const double acc = 2.0 - static_cast<double>(at) * t + 0.25 * t;
    expect_ordered_sum(acc, std::vector<double>(n, t), 1.0,
                       "crossing after " + std::to_string(at));
  }
  // A crossing exactly at the top of the binade, and one by the last term
  // of a block and of the whole sum.
  for (const std::size_t len : {kSumBlock, kSumBlock + 1, n}) {
    const double acc = 2.0 - static_cast<double>(len) * t;
    expect_ordered_sum(acc, std::vector<double>(len, t), 1.0,
                       "lands on 2.0");
    expect_ordered_sum(acc + 0x1p-52, std::vector<double>(len, t), 1.0,
                       "last term crosses");
  }
  // Several binades in one sum, and a sum that starts just below one.
  expect_ordered_sum(0x1p-30, std::vector<double>(4000, 0x1p-20), 1.0,
                     "many binades");
  expect_ordered_sum(std::nextafter(4.0, 0.0),
                     std::vector<double>(600, 0x1p-60), 1.0, "below 4");
}

TEST(OrderedSum, AccumulatorAtZeroSubnormalAndTheTopBinade) {
  std::vector<double> q(700);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = 0.001 * static_cast<double>(i % 97) + 0x1p-40;
  }
  const double max = std::numeric_limits<double>::max();
  for (const double acc :
       {0.0, -0.0, 0x1p-1074, 0x1p-1050, 0x1.fffffffffffffp-1023, 0x1p-1022,
        0x1.8p-1022, 0x1p-1021, 0x1p1022, 0x1p1023, 0x1.8p1023, max}) {
    for (const double dt : {1.0, 0x1p-1070, 0x1p-1000, 0x1p1000, 0x1p1020}) {
      expect_ordered_sum(acc, q, dt, "edge acc");
    }
  }
  // Subnormal terms onto a subnormal and a tiny normal accumulator.
  expect_ordered_sum(0x1p-1073, std::vector<double>(600, 0x1p-1074), 1.0,
                     "subnormal terms");
  expect_ordered_sum(0x1p-1020, std::vector<double>(600, 0x1.8p-1074), 1.0,
                     "subnormal terms, normal acc");
  expect_ordered_sum(-1.0, q, 1.0, "negative acc");
  expect_ordered_sum(std::numeric_limits<double>::infinity(), q, 1.0,
                     "inf acc");
  expect_ordered_sum(std::nan(""), q, 1.0, "nan acc");
}

TEST(OrderedSum, SpecialTermsAndZeroDt) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double max = std::numeric_limits<double>::max();
  for (const double acc : {1.0, 0x1.23456789abcdep+20, 0x1p1023}) {
    for (const double special :
         {0.0, -0.0, -1e-300, -0x1p-60, -1.0, nan, inf, -inf, 0x1p-1074,
          0x1.fffffffffffffp-1023, 0.5 * acc, acc, 2.0 * acc, max}) {
      for (const std::size_t at : {0u, 5u, 255u, 256u, 300u, 511u}) {
        std::vector<double> q(512);
        for (std::size_t i = 0; i < q.size(); ++i) {
          q[i] = 0x1p-30 * static_cast<double>(1 + i % 13);
        }
        q[at] = special;
        for (const double dt : {1.0, 0.0, -0.0, 0.375}) {
          expect_ordered_sum(acc, q, dt, "special term");
        }
      }
    }
  }
  // Negative terms at the bottom of a binade: below 1.0 the grid is
  // finer, so after -0x1.8p-54 takes the sum to 1 - 2^-53 the next term
  // rounds on that grid, not on 1.0's.
  std::vector<double> down(600);
  for (std::size_t i = 0; i < down.size(); ++i) {
    down[i] = i % 2 == 0 ? -0x1.8p-54 : 0x1.8p-54;
  }
  expect_ordered_sum(1.0, down, 1.0, "negative at the binade bottom");
  // dt = 0 over terms that make 0·t a NaN.
  expect_ordered_sum(1.0, std::vector<double>(300, inf), 0.0, "0 * inf");
  expect_ordered_sum(1.0, std::vector<double>(300, 0.0), inf, "inf * 0");
  expect_ordered_sum(1.0, std::vector<double>(300, -0.0), 1.0, "all -0.0");
}

TEST(OrderedSum, EveryCountUpToTwoBlocksAndMore) {
  std::mt19937_64 rng(0x0dd5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t n = 0; n <= 2 * kSumBlock + 17; ++n) {
    std::vector<double> q(n);
    for (double& x : q) x = unit(rng);
    expect_ordered_sum(1000.0 * unit(rng), q, 1e-3, "count");
    expect_ordered_sum(0.0, q, 1e-3, "count from zero");
  }
}

TEST(OrderedSum, SeededRandomCasesMatchTheSerialLoop) {
  std::mt19937_64 rng(0xf10a7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto any_double = [&rng] {
    return std::bit_cast<double>(rng());  // any bit pattern, NaNs included
  };
  for (int c = 0; c < 10000; ++c) {
    const std::size_t n = rng() % (3 * kSumBlock);
    // Terms of one magnitude with a little spread, as a gap of flow
    // quotients times dt is; sometimes a wild bit pattern among them.
    const double scale = std::ldexp(1.0, static_cast<int>(rng() % 80) - 60);
    std::vector<double> q(n);
    for (double& x : q) x = scale * (0.5 + unit(rng));
    if (n > 0 && rng() % 4 == 0) q[rng() % n] = any_double();
    if (n > 0 && rng() % 8 == 0) q[rng() % n] = -q[rng() % n];
    // acc from zero to far above the block's total; dt a dyadic or not.
    double acc = 0.0;
    switch (rng() % 4) {
      case 0: acc = 0.0; break;
      case 1: acc = scale * static_cast<double>(n) * unit(rng); break;
      case 2: acc = std::ldexp(unit(rng), static_cast<int>(rng() % 120)); break;
      default: acc = std::fabs(any_double()); break;
    }
    const double dt = rng() % 2 == 0
                          ? std::ldexp(1.0, static_cast<int>(rng() % 9) - 4)
                          : unit(rng);
    expect_ordered_sum(acc, q, dt, "random case " + std::to_string(c));
    if (HasFailure()) return;
  }
}

// ----------------------------------------------------- repeated_scaled_sum

/// repeated_scaled_sum against the serial loop over `count` copies of q,
/// bit for bit (a NaN only as a NaN).
void expect_repeated_sum(double acc, double q, std::size_t count, double dt,
                         const std::string& what) {
  const std::vector<double> terms(count, q);
  const double want = ordered_sum::serial(acc, terms.data(), count, dt);
  const double got = repeated_scaled_sum(acc, q, count, dt);
  EXPECT_TRUE(std::isnan(want) ? std::isnan(got) : bits(got) == bits(want))
      << std::hexfloat << what << " acc=" << acc << " q=" << q
      << " dt=" << dt << " count=" << count << " want=" << want
      << " got=" << got;
}

constexpr std::size_t kRunCounts[] = {0, 1, 2, 511, 512, 513, 1'000'000};

TEST(RepeatedSum, AccumulatorAtZeroSubnormalAndBelowAPowerOfTwo) {
  for (const double acc :
       {0.0, -0.0, 0x1p-1074, 0x1p-1050, 0x1.fffffffffffffp-1023, 0x1p-1022,
        0x1p-1021, std::nextafter(1.0, 0.0), std::nextafter(2.0, 0.0),
        std::nextafter(0x1p40, 0.0), 1.0, 0x1.8p1023}) {
    for (const double q : {1.0, 0.37, 0x1p-60, 0x1p-1074}) {
      for (const std::size_t count : kRunCounts) {
        expect_repeated_sum(acc, q, count, 0.001, "edge acc");
        expect_repeated_sum(acc, q, count, 1.0, "edge acc, dt 1");
      }
    }
  }
}

TEST(RepeatedSum, RunsThatCrossABinade) {
  // Partial sums cross 2.0 after `at` terms of t = 2^-20 each.
  const double t = 0x1p-20;
  for (const std::size_t at : {0u, 1u, 255u, 511u, 512u, 513u}) {
    const double acc = 2.0 - static_cast<double>(at) * t + 0.25 * t;
    for (const std::size_t count : {kSumBlock, kSumBlock + 1}) {
      expect_repeated_sum(acc, t, count, 1.0,
                          "crossing after " + std::to_string(at));
    }
  }
  // Landing exactly on 2.0, and the last term crossing it.
  for (const std::size_t count : {1u, 2u, 512u, 513u}) {
    const double acc = 2.0 - static_cast<double>(count) * t;
    expect_repeated_sum(acc, t, count, 1.0, "lands on 2.0");
    expect_repeated_sum(acc + 0x1p-52, t, count, 1.0, "last term crosses");
  }
  // A run whose exact sum 2^1 + u rounds, as a tie, to 2.0 itself, while
  // the serial loop's last term, off a tie, rounds up from 2.0.
  const double u = 0x1p-52;
  expect_repeated_sum(2.0 - 3.0 * u, u * (1.0 + 0x1p-10), 4, 1.0,
                      "one grid step past 2.0");
  // Many binades in one run.
  expect_repeated_sum(0x1p-30, t, 4000, 1.0, "many binades");
  expect_repeated_sum(0.5, 1.0, 1'000'000, 0.001, "10^6 terms of 0.001");
}

TEST(RepeatedSum, TiesAtBothAccumulatorParities) {
  // acc in [1, 2): grid u = 2^-52. A term of u/2 is a tie: from an even
  // sum it rounds down, from an odd one up.
  const double u = 0x1p-52;
  for (const double acc : {1.0, 1.0 + u, 1.5, 1.5 + u}) {
    for (const double q :
         {0.5 * u, 1.5 * u, 0.5 * u + 0x1p-105, 0.5 * u - 0x1p-106}) {
      for (const std::size_t count : kRunCounts) {
        expect_repeated_sum(acc, q, count, 1.0, "tie");
        // The same through dt: q·dt lands exactly on the tie.
        expect_repeated_sum(acc, 4.0 * q, count, 0.25, "scaled tie");
      }
    }
  }
}

TEST(RepeatedSum, NegativeNanAndInfiniteTerms) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double max = std::numeric_limits<double>::max();
  for (const double acc : {1.0, 0x1.23456789abcdep+20, 0x1p1023, 0.0, inf,
                           -inf, nan, -1.0}) {
    for (const double q :
         {0.0, -0.0, -1e-300, -0x1p-60, -1.0, nan, inf, -inf, max}) {
      for (const double dt : {1.0, 0.0, -0.0, 0.375}) {
        for (const std::size_t count : {0u, 1u, 512u}) {
          expect_repeated_sum(acc, q, count, dt, "special term");
        }
      }
    }
  }
  // Negative terms from the bottom and the middle of a binade (where the
  // serial loop never moves), over a long run.
  expect_repeated_sum(1.0, -0x1.8p-54, 1'000'000, 1.0, "negative run");
  expect_repeated_sum(1.5, -0x1.8p-54, 512, 1.0, "negative run mid-binade");
  expect_repeated_sum(1.0, inf, 1'000'000, 1.0, "inf run");
  expect_repeated_sum(1.0, nan, 1'000'000, 1.0, "nan run");
}

/// repeated_block_sum against the serial loop over blocks·kBlock copies
/// of q, bit for bit (a NaN only as a NaN).
void expect_block_run_sum(double acc, double q, std::size_t blocks,
                          double dt, const std::string& what) {
  const std::vector<double> terms(blocks * kSumBlock, q);
  const double want = ordered_sum::serial(acc, terms.data(), terms.size(), dt);
  const double got = repeated_block_sum(acc, q, blocks, dt);
  EXPECT_TRUE(std::isnan(want) ? std::isnan(got) : bits(got) == bits(want))
      << std::hexfloat << what << " acc=" << acc << " q=" << q
      << " dt=" << dt << " blocks=" << blocks << " want=" << want
      << " got=" << got;
}

TEST(RepeatedSum, RunsOfBlocksMatchTheSerialLoop) {
  // A run of whole blocks in one sum, and — where its sum crosses a power
  // of two partway through, or every term is a tie — a block at a time.
  const double t = 0x1p-20;
  for (const std::size_t blocks : {1u, 2u, 3u, 7u, 40u}) {
    const double len = static_cast<double>(blocks * kSumBlock);
    for (const double frac : {0.0, 0.3, 0.5, 0.99, 1.0, 1.01}) {
      // The run's partial sums cross 2.0 after frac of its terms.
      expect_block_run_sum(2.0 - frac * len * t + 0.25 * t, t, blocks, 1.0,
                           "crossing at " + std::to_string(frac));
    }
    expect_block_run_sum(2.0 - len * t, t, blocks, 1.0, "lands on 2.0");
    const double u = 0x1p-52;
    for (const double acc : {1.0, 1.0 + u, 1.5 + u}) {
      expect_block_run_sum(acc, 0.5 * u, blocks, 1.0, "tie");
      expect_block_run_sum(acc, 2.0 * u, blocks, 0.25, "scaled tie");
    }
    for (const double acc : {0.0, 0x1p-1074, 1e300, 0x1.8p1023}) {
      expect_block_run_sum(acc, 0.375, blocks, 0.001, "edge acc");
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double q : {-1.0, nan, std::numeric_limits<double>::infinity(),
                           0.0, -0.0}) {
      expect_block_run_sum(1.0, q, blocks, 0.5, "special term");
    }
    expect_block_run_sum(0x1p-30, t, blocks, 1.0, "many binades");
  }
  std::mt19937_64 rng(0xb10c5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int c = 0; c < 300; ++c) {
    const std::size_t blocks = 1 + rng() % 12;
    const double q = std::ldexp(0.5 + unit(rng),
                                static_cast<int>(rng() % 40) - 30);
    const double acc =
        q * static_cast<double>(blocks * kSumBlock) * 4.0 * unit(rng);
    expect_block_run_sum(acc, q, blocks, unit(rng),
                         "random case " + std::to_string(c));
    if (HasFailure()) return;
  }
}

TEST(RepeatedSum, RunsSplitAtEveryPowerOfTwoTheyCross) {
  // One run whose sum crosses 2, 4, 8, ... partway through a block: the
  // blocks between two crossings are one sum, the crossing block the
  // serial loop's. A block of t = 2^-14 adds 1/32.
  for (const std::size_t blocks : {33u, 224u, 300u, 1000u}) {
    for (const double acc : {1.0, 1.0 + 0x1p-20, 1.3, 0x1.fffp0}) {
      expect_block_run_sum(acc, 0x1p-14, blocks, 1.0, "dyadic terms");
      // Terms off the grid: each rounds, to a different multiple of u
      // in each binade.
      expect_block_run_sum(acc, 0.37, blocks, 0x1p-14, "rounded terms");
      expect_block_run_sum(acc, 1.0 / 3.0, blocks, 1e-4, "thirds");
    }
  }
  // A crossing within the run's first block, and one within its last.
  expect_block_run_sum(2.0 - 0x1p-20, 0x1p-14, 100, 1.0, "first block");
  expect_block_run_sum(8.0 - 99.5 / 32.0, 0x1p-14, 100, 1.0, "last block");
  // Idle-flow-like runs: acc between 2^10 and 2^23, each run adding 1 to
  // 15 times acc, so that it crosses one to four powers of two.
  std::mt19937_64 rng(0xc2055);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int c = 0; c < 200; ++c) {
    const std::size_t blocks = 1 + rng() % 400;
    const double acc =
        std::ldexp(1.0 + unit(rng), 10 + static_cast<int>(rng() % 14));
    const double q = 0.5 + unit(rng);
    const double dt = acc * (1.0 + 14.0 * unit(rng)) /
                      (q * static_cast<double>(blocks * kSumBlock));
    expect_block_run_sum(acc, q, blocks, dt,
                         "random case " + std::to_string(c));
    if (HasFailure()) return;
  }
}

TEST(RepeatedSum, SeededRandomCasesMatchTheSerialLoop) {
  std::mt19937_64 rng(0x5e9ea7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int c = 0; c < 5000; ++c) {
    const std::size_t count = rng() % (3 * kSumBlock);
    const double q = std::ldexp(0.5 + unit(rng),
                                static_cast<int>(rng() % 80) - 60);
    double acc = 0.0;
    switch (rng() % 3) {
      case 0: acc = q * static_cast<double>(count) * unit(rng); break;
      case 1: acc = std::ldexp(unit(rng), static_cast<int>(rng() % 120)); break;
      default: acc = std::fabs(std::bit_cast<double>(rng())); break;
    }
    const double dt = rng() % 2 == 0
                          ? std::ldexp(1.0, static_cast<int>(rng() % 9) - 4)
                          : unit(rng);
    expect_repeated_sum(acc, q, count, dt, "random case " + std::to_string(c));
    if (HasFailure()) return;
  }
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> hits(6, 0);
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h), trials / 6.0, trials * 0.01);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, LogUniformBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.log_uniform(1.0, 64.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 64.0);
  }
}

TEST(Rng, BoundedParetoBounds) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.0, 100.0, 1.1);
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(Rng, BoundedParetoAgreesWithTextbookInversion) {
  // The stable form lo·(1 − u·(1 − (lo/hi)^a))^(−1/a) must agree with
  // the textbook inversion pow(-(u·hi^a − u·lo^a − hi^a)/(hi^a·lo^a),
  // −1/a) wherever the latter does not overflow. The two expression
  // trees round differently, so agreement is pinned at a few ULPs of
  // relative error, not bit equality.
  Rng sampler(31);
  Rng mirror(31);  // same stream: reproduce each u the sampler consumed
  for (const auto& [lo, hi, a] :
       {std::tuple{1.0, 100.0, 1.1}, std::tuple{0.5, 64.0, 2.5},
        std::tuple{2.0, 1e6, 0.7}}) {
    const double la = std::pow(lo, a);
    const double ha = std::pow(hi, a);
    for (int i = 0; i < 10000; ++i) {
      const double v = sampler.bounded_pareto(lo, hi, a);
      const double u = mirror.uniform01();
      const double textbook =
          std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / a);
      ASSERT_NEAR(v, textbook, 1e-12 * textbook)
          << "lo=" << lo << " hi=" << hi << " a=" << a << " u=" << u;
    }
  }
}

TEST(Rng, BoundedParetoFiniteInOverflowRegime) {
  // hi^shape overflows a double (1e300^2.5 = inf): the textbook
  // inversion returned NaN here (inf − inf in the numerator). The
  // stable form only ever evaluates (lo/hi)^shape ∈ (0, 1].
  Rng rng(37);
  const double lo = 1.0, hi = 1e300, shape = 2.5;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.bounded_pareto(lo, hi, shape);
    ASSERT_TRUE(std::isfinite(v)) << "sample " << i << " not finite";
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(29);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

// ---------------------------------------------------------------- stats

TEST(Stats, RunningStatsMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, LinearFitExact) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{3, 5, 7, 9};  // y = 2x + 1
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

// ---------------------------------------------------------------- table

TEST(Table, PrintsAllRowsAndHeaders) {
  Table t({"P", "ratio"});
  t.add_row({std::int64_t{64}, 2.5});
  t.add_row({std::int64_t{128}, 3.0});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("P"), std::string::npos);
  EXPECT_NE(s.find("ratio"), std::string::npos);
  EXPECT_NE(s.find("64"), std::string::npos);
  EXPECT_NE(s.find("3.0"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumericColumn) {
  Table t({"a", "b"});
  t.add_row({std::int64_t{1}, 2.5});
  t.add_row({std::int64_t{3}, 4.5});
  const auto col = t.numeric_column("b");
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[0], 2.5);
  EXPECT_DOUBLE_EQ(col[1], 4.5);
  EXPECT_THROW((void)t.numeric_column("zzz"), std::out_of_range);
}

TEST(Table, WriteCsvEscapesAndRoundsTrip) {
  Table t({"name", "value"});
  t.add_row({std::string("plain"), 1.5});
  t.add_row({std::string("with,comma"), 2.5});
  t.add_row({std::string("with\"quote"), std::int64_t{3}});
  const std::string path = "test_table_out.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3");
  std::remove(path.c_str());
}

// -------------------------------------------------------------- options

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--m=16", "--verbose", "pos1",
                        "--alpha=0.5,0.75"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("m", 0), 16);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_EQ(o.get("missing", "dflt"), "dflt");
  const auto alphas = o.get_doubles("alpha", {});
  ASSERT_EQ(alphas.size(), 2u);
  EXPECT_DOUBLE_EQ(alphas[0], 0.5);
  EXPECT_DOUBLE_EQ(alphas[1], 0.75);
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, GetIntsParsesLists) {
  const char* argv[] = {"prog", "--P=8,16,32"};
  Options o(2, argv);
  const auto ps = o.get_ints("P", {});
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps[0], 8);
  EXPECT_EQ(ps[2], 32);
  const auto dflt = o.get_ints("missing", {1, 2});
  ASSERT_EQ(dflt.size(), 2u);
}

TEST(Options, UnusedKeysDetectsTypos) {
  const char* argv[] = {"prog", "--machnies=16"};
  Options o(2, argv);
  (void)o.get_int("machines", 8);
  const auto unused = o.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "machnies");
}

// ------------------------------------------------------------- timeline

TEST(StepFunction, ValueAndIntegrate) {
  StepFunction f;
  f.append(0.0, 2.0);
  f.append(1.0, 5.0);
  f.append(3.0, 0.0);
  EXPECT_DOUBLE_EQ(f.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 2.0);
  EXPECT_DOUBLE_EQ(f.value(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.value(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f.value(10.0), 0.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 3.0), 2.0 + 2.0 * 5.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.5, 1.5), 0.5 * 2.0 + 0.5 * 5.0);
}

TEST(StepFunction, OverwriteAtSameTime) {
  StepFunction f;
  f.append(0.0, 1.0);
  f.append(0.0, 3.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 3.0);
  EXPECT_EQ(f.size(), 1u);
}

TEST(PiecewiseLinear, ValueInterpolation) {
  PiecewiseLinear f;
  f.append(0.0, 10.0);
  f.append(5.0, 0.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f.value(2.5), 5.0);
  EXPECT_DOUBLE_EQ(f.value(5.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(100.0), 0.0);   // flat extrapolation
  EXPECT_DOUBLE_EQ(f.value(-1.0), 10.0);
}

TEST(PiecewiseLinear, RightDerivative) {
  PiecewiseLinear f;
  f.append(0.0, 10.0);
  f.append(5.0, 0.0);
  f.append(7.0, 4.0);
  EXPECT_DOUBLE_EQ(f.right_derivative(1.0), -2.0);
  EXPECT_DOUBLE_EQ(f.right_derivative(5.0), 2.0);  // right-sided at knot
  EXPECT_DOUBLE_EQ(f.right_derivative(7.0), 0.0);
}

TEST(PiecewiseLinear, Integrate) {
  PiecewiseLinear f;
  f.append(0.0, 10.0);
  f.append(5.0, 0.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 5.0), 25.0);
  EXPECT_DOUBLE_EQ(f.integrate(0.0, 10.0), 25.0);  // flat 0 after
  EXPECT_NEAR(f.integrate(1.0, 2.0), 0.5 * (8.0 + 6.0), 1e-12);
}

}  // namespace
}  // namespace parsched
