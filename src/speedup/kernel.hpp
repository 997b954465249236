// parsched — batched speedup-rate evaluation over flat (kind, α) arrays.
//
// The engine's fused validation+rates pass historically evaluated
// Γ_j(x_j) through a SpeedupCurve value stored inside each AliveJob: one
// out-of-line SpeedupCurve::rate() call per alive job per decision. With
// the alive set stored as structure-of-arrays (simcore/alive_set.hpp's
// AliveSet), the per-decision rate evaluation becomes one rate_batch call
// over four dense arrays. Per element it runs exactly the scalar
// arithmetic of SpeedupCurve::rate() (same branch structure, same
// std::pow call), so its output is bit-identical to the historic per-job
// loop: a pure layout change.
//
// Only power-law elements with x > 1 reach std::pow. A feasible
// allocation has Σ x_j ≤ m, so fewer than m jobs per decision can hold
// x > 1 — on the E1b/E2b grids about 1.2 pow calls per decision out of
// ~20 rate elements, and none at all on the dense n = 10⁶ workloads.
//
// The kernel is allocation-free over caller-owned spans — safe inside
// the engine's AllocGuard fences — and multiplies by the engine speed in
// the same `speed * Γ(x)` expression the scalar path used.
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
