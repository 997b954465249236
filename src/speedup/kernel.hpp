// parsched — batched speedup-rate evaluation over flat (kind, α) arrays.
//
// Per element rate_batch runs exactly the scalar arithmetic of
// SpeedupCurve::rate() (same branch structure, same std::pow call), so
// its output is bit-identical to a per-job rate() loop. It measured no
// faster than that loop (E11's rate_kernel table), and no engine path
// calls it: the engine rates each job through its own SpeedupCurve. Its
// remaining users are perfbench's rate replay, E11's rate_kernel table
// and tests/test_rate_kernel.cpp.
//
// Only power-law elements with x > 1 reach std::pow. A feasible
// allocation has Σ x_j ≤ m, so fewer than m jobs per decision can hold
// x > 1 — on the E1b/E2b grids about 1.2 pow calls per decision out of
// ~20 rate elements, and none at all on the dense n = 10⁶ workloads.
//
// The kernel is allocation-free over caller-owned spans and multiplies
// by the speed in the same `speed * Γ(x)` expression as the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace parsched::speedup {

/// Fallback evaluator for elements whose curve the flat (kind, α)
/// arrays cannot encode (Kind::kPiecewiseLinear needs its knot vector).
/// `fn(ctx, i, x)` must return exactly `speed_less_rate`, i.e. the
/// curve's Γ_i(x) — the kernel applies the speed factor itself, keeping
/// the arithmetic identical across kinds. A null `fn` with a
/// piecewise-linear element present is a contract violation.
struct PwlRateFn {
  double (*fn)(const void* ctx, std::size_t i, double x) = nullptr;
  const void* ctx = nullptr;
};

/// Curve kinds as stored in the flat arrays: the numeric values of
/// SpeedupCurve::Kind, narrowed to one byte so the kind array stays
/// dense. kernel.cpp static_asserts the correspondence.
inline constexpr std::uint8_t kKindFullyParallel = 0;
inline constexpr std::uint8_t kKindSequential = 1;
inline constexpr std::uint8_t kKindPowerLaw = 2;
inline constexpr std::uint8_t kKindPiecewiseLinear = 3;

/// out[i] = speed * Γ_i(xs[i]) with the exact scalar arithmetic of
/// SpeedupCurve::rate(). All spans must have equal length; out may not
/// alias xs/alphas. Requires xs[i] >= 0 (DCHECK, matching rate()).
void rate_batch(std::span<const std::uint8_t> kinds,
                std::span<const double> alphas, std::span<const double> xs,
                double speed, std::span<double> out, PwlRateFn pwl = {});

}  // namespace parsched::speedup
