// parsched — deterministic random number generation.
//
// All stochastic workloads are driven by an explicitly seeded xoshiro256++
// generator so every experiment in the repository is bit-reproducible.
// No global RNG state exists anywhere in the library.
#pragma once

#include <array>
#include <cstdint>

namespace parsched {

/// xoshiro256++ by Blackman & Vigna, seeded via splitmix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Log-uniform on [lo, hi]: uniform in log-space; heavy spread of scales.
  double log_uniform(double lo, double hi);

  /// Bounded Pareto on [lo, hi] with tail index `shape` (> 0).
  double bounded_pareto(double lo, double hi, double shape);

  /// Bernoulli with success probability p.
  bool bernoulli(double p);

  /// Derive an independent child generator (for per-run streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace parsched
