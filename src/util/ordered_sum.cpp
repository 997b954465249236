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
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(acc) >> 52;
  // acc positive and finite, above the lowest normal binade (whose u/2
  // is not a double).
  if (!(acc > 0.0) || biased < 2 || biased > 2046) return false;
  const double m = std::bit_cast<double>(biased << 52);  // M = 2^(e-1)
  const double top = m + m;                              // 2^e, or +inf
  const double half = m * 0x1p-53;                       // u/2, exact
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
  if (!(s < top && least >= 0.0 && most < half)) return false;
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

}  // namespace parsched
