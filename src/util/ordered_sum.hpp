// parsched — the serial sum acc + q[0]*dt + q[1]*dt + ..., bit for bit,
// added in independent lanes.
//
// The engine's fractional flow over idle jobs is one long chain of
// additions whose order is part of its bits. ordered_scaled_sum returns
// exactly what the plain loop returns, but adds most terms on the
// accumulator's grid, where the order of addition does not matter;
// repeated_scaled_sum does the same for a run of equal terms in O(1).
#pragma once

#include <cstddef>

namespace parsched {

/// acc + q[0]*dt + q[1]*dt + ... + q[count-1]*dt: each product rounded,
/// then added one at a time in index order in round-to-nearest-even —
/// the bits of `for (i) acc += q[i] * dt;`, for every input (zeros,
/// negatives, subnormals, NaN and ±inf included).
///
/// Blocks of terms are added on acc's grid. Let acc be positive and
/// normal in [2^(e-1), 2^e), with grid u = 2^(e-53) and M = 2^(e-1).
/// While every partial sum stays below 2^e, a serial step is
/// acc + RN_u(t), where RN_u(t) = (t + M) - M rounds a term t >= 0 to a
/// multiple of u — unless t lies exactly halfway between two multiples,
/// where the serial step's tie goes to the even sum and so depends on
/// acc. Multiples of u below 2^e add exactly in any order, so a block is
/// s = acc + Σ RN_u(fl(q_k·dt)) summed in lanes. It is taken only when
/// s < 2^e, no term is a tie and every term is >= 0 (a NaN or ±inf term
/// fails s < 2^e); otherwise the block is redone with the serial loop.
/// That covers acc = 0 or subnormal, a binade crossing, ties, and
/// negative or NaN terms. Short sums take the serial loop directly.
[[nodiscard]] double ordered_scaled_sum(double acc, const double* q,
                                        std::size_t count, double dt);

/// acc + q*dt + q*dt + ... (count terms): the bits of
/// `for (count) acc += q * dt;`, for every input. All terms are the one
/// t = fl(q·dt), so on acc's grid (as above) k terms add up to
/// acc + k·RN_u(t) — k·RN_u(t) and the final add are exact while the sum
/// stays below 2^e. So the run is split where its sum crosses a power of
/// two: the terms below it are one O(1) sum under the blocked sum's test
/// (acc positive and normal, t >= 0 and not a tie), the term that crosses
/// it is one serial step, and the rest go on on the next binade's grid.
/// Where the test fails (a tie, a negative or NaN term, acc zero,
/// subnormal or infinite), the terms are added one serial step at a time
/// until it passes.
[[nodiscard]] double repeated_scaled_sum(double acc, double q,
                                         std::size_t count, double dt);

/// The arms behind ordered_scaled_sum, for tests. Both return the same
/// bits; the blocked arm is used when the CPU has AVX2, the plain loop
/// otherwise (narrower vectors measured no faster than the loop).
namespace ordered_sum {

/// Terms per block: one acceptance test each, and a rejected block (a
/// binade crossing, a tie) costs one serial redo of this many terms.
inline constexpr std::size_t kBlock = 512;

/// The plain loop: the fallback and the oracle.
[[nodiscard]] double serial(double acc, const double* q, std::size_t count,
                            double dt);

/// The blocked sum compiled for AVX2 (never FMA: a contracted q·dt + M
/// would round once where the serial loop rounds twice). Call only when
/// avx2_supported(); where AVX2 cannot be targeted it is serial().
[[nodiscard]] double avx2(double acc, const double* q, std::size_t count,
                          double dt);

/// Whether this CPU runs avx2().
[[nodiscard]] bool avx2_supported();

}  // namespace ordered_sum

}  // namespace parsched
