#include "util/ordered_sum.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace parsched {

namespace {

/// Sums shorter than this take the serial loop: an idle gap of a few jobs
/// gains nothing from a block's setup and acceptance test.
constexpr std::size_t kMinBlocked = 64;

/// Lanes: kVecs vectors of four doubles (V; Vi holds V's bits). The block
/// helpers are always-inline so that they compile inside the AVX2 arm.
using V = double __attribute__((vector_size(32)));
using Vi = std::int64_t __attribute__((vector_size(32)));
constexpr std::size_t kVecs = 2;

[[gnu::always_inline]] inline double serial_loop(double acc, const double* q,
                                                 std::size_t count,
                                                 double dt) {
  for (std::size_t i = 0; i < count; ++i) acc += q[i] * dt;
  return acc;
}

/// acc's grid (see ordered_scaled_sum): M = 2^(e-1), the bound 2^e and
/// u/2 for acc in [2^(e-1), 2^e).
struct Grid {
  double m;
  double top;   ///< 2^e, or +inf
  double half;  ///< u/2, exact
};

/// acc's grid, when acc is positive and finite and above the lowest
/// normal binade (whose u/2 is not a double).
[[gnu::always_inline]] inline bool grid_of(double acc, Grid& g) {
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(acc) >> 52;
  if (!(acc > 0.0) || biased < 2 || biased > 2046) return false;
  g.m = std::bit_cast<double>(biased << 52);
  g.top = g.m + g.m;
  g.half = g.m * 0x1p-53;
  return true;
}

/// One block of `len` terms on acc's grid: true, with `out` the serial
/// sum, when the block is taken (see ordered_scaled_sum); false when it
/// must be redone serially. Each lane sums RN_u(t) and tracks the least
/// term and the largest rounding offset |t - RN_u(t)|, which is exact for
/// the terms a taken block admits.
[[gnu::always_inline]] inline bool grid_block(double acc, const double* q,
                                              std::size_t len, double dt,
                                              double& out) {
  constexpr std::size_t kW = sizeof(V) / sizeof(double);
  constexpr std::size_t kStep = kW * kVecs;
  Grid g{};
  if (!grid_of(acc, g)) return false;
  const double m = g.m;
  const V vm = m - V{};  // scalar - vector broadcasts
  const V vdt = dt - V{};
  const Vi vabs = INT64_MAX - Vi{};  // clears the sign bit
  V sum[kVecs] = {};
  V lo[kVecs] = {};
  V off[kVecs] = {};
  std::size_t i = 0;
  for (; i + kStep <= len; i += kStep) {
    // Unrolled, so the accumulator arrays live in registers.
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kVecs; ++k) {
      V t;
      std::memcpy(&t, q + i + k * kW, sizeof t);
      t *= vdt;
      const V r = (t + vm) - vm;
      sum[k] += r;
      lo[k] = t < lo[k] ? t : lo[k];
      const V d = (V)((Vi)(t - r) & vabs);
      off[k] = d > off[k] ? d : off[k];
    }
  }
  double s = 0.0;
  double least = 0.0;
  double most = 0.0;
  for (std::size_t k = 0; k < kVecs; ++k) {
    for (std::size_t w = 0; w < kW; ++w) {
      s += sum[k][w];
      least = std::min(least, lo[k][w]);
      most = std::max(most, off[k][w]);
    }
  }
  for (; i < len; ++i) {
    const double t = q[i] * dt;
    const double r = (t + m) - m;
    s += r;
    least = std::min(least, t);
    most = std::max(most, t > r ? t - r : r - t);
  }
  s += acc;
  if (!(s < g.top && least >= 0.0 && most < g.half)) return false;
  out = s;
  return true;
}

[[gnu::always_inline]] inline double blocked_sum(double acc, const double* q,
                                                 std::size_t count,
                                                 double dt) {
  for (std::size_t b = 0; b < count; b += ordered_sum::kBlock) {
    const std::size_t len = std::min(ordered_sum::kBlock, count - b);
    double s = 0.0;
    acc = grid_block(acc, q + b, len, dt, s)
              ? s
              : serial_loop(acc, q + b, len, dt);
  }
  return acc;
}

}  // namespace

namespace ordered_sum {

double serial(double acc, const double* q, std::size_t count, double dt) {
  return serial_loop(acc, q, count, dt);
}

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("avx2")]] double avx2(double acc, const double* q,
                                    std::size_t count, double dt) {
  return blocked_sum(acc, q, count, dt);
}

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

#else

double avx2(double acc, const double* q, std::size_t count, double dt) {
  return serial_loop(acc, q, count, dt);
}

bool avx2_supported() { return false; }

#endif

}  // namespace ordered_sum

double ordered_scaled_sum(double acc, const double* q, std::size_t count,
                          double dt) {
  if (count < kMinBlocked) return serial_loop(acc, q, count, dt);
  static const auto arm = ordered_sum::avx2_supported()
                              ? &ordered_sum::avx2
                              : &ordered_sum::serial;
  return arm(acc, q, count, dt);
}

namespace {

/// acc's grid and r = RN_u(t), when acc and the term t pass the grid test
/// (acc positive and normal, t >= 0 and not a tie).
bool grid_term(double acc, double t, Grid& g, double& r) {
  if (!grid_of(acc, g)) return false;
  r = (t + g.m) - g.m;
  return t >= 0.0 && (t > r ? t - r : r - t) < g.half;
}

/// repeated_scaled_sum's O(1) arm: true, with `out` the serial sum of
/// `count` terms t = q·dt, when the grid test passes.
bool grid_repeated_sum(double acc, double t, std::size_t count,
                       double& out) {
  Grid g{};
  double r = 0.0;
  if (!grid_term(acc, t, g, r)) return false;
  // count·r is exact below 2^e (r is a multiple of u), and at or above
  // it (count·r rounded up to at least 2^e) the test fails.
  const double s = acc + static_cast<double>(count) * r;
  if (!(s < g.top)) return false;
  out = s;
  return true;
}

/// repeated_block_sum's O(1) arm: adds to acc, in one grid sum, the most
/// whole blocks of terms t, of at most `blocks`, whose sum stays below
/// 2^e, and returns how many; 0, with acc unchanged, when acc or t fails
/// the grid test.
std::size_t grid_blocks_sum(double& acc, double t, std::size_t blocks) {
  Grid g{};
  double r = 0.0;
  if (!grid_term(acc, t, g, r)) return 0;
  constexpr std::size_t kB = ordered_sum::kBlock;
  // 2^e - acc is exact; the quotient (+inf for r = 0) may round up, so
  // step back until the sum, exact below 2^e and rounded to at least 2^e
  // above it, is below 2^e.
  const double room = (g.top - acc) / (r * static_cast<double>(kB));
  std::size_t k = room >= static_cast<double>(blocks)
                      ? blocks
                      : static_cast<std::size_t>(room);
  while (k > 0 && !(acc + static_cast<double>(k * kB) * r < g.top)) --k;
  acc += static_cast<double>(k * kB) * r;
  return k;
}

}  // namespace

double repeated_scaled_sum(double acc, double q, std::size_t count,
                           double dt) {
  const double t = q * dt;
  double s = 0.0;
  if (grid_repeated_sum(acc, t, count, s)) return s;
  for (std::size_t i = 0; i < count; ++i) acc += t;
  return acc;
}

double repeated_block_sum(double acc, double q, std::size_t blocks,
                          double dt) {
  const double t = q * dt;
  for (;;) {
    // The blocks up to acc's next power of two in one sum, then the block
    // that crosses it (or whose terms fail the grid test) on its own; the
    // rest are a new run on the next binade's grid.
    blocks -= grid_blocks_sum(acc, t, blocks);
    if (blocks == 0) return acc;
    acc = repeated_scaled_sum(acc, q, ordered_sum::kBlock, dt);
    --blocks;
  }
}

}  // namespace parsched
