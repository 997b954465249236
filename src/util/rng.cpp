#include "util/rng.hpp"

#include <cmath>

#include "check/contract.hpp"

namespace parsched {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // Avoid the all-zero state (splitmix64 never produces it for all four
  // words simultaneously, but be defensive).
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PARSCHED_DCHECK(lo <= hi, "uniform needs lo <= hi");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PARSCHED_DCHECK(lo <= hi, "uniform_int needs lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double rate) {
  PARSCHED_DCHECK(rate > 0.0, "exponential needs a positive rate");
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -std::log(u) / rate;
}

double Rng::log_uniform(double lo, double hi) {
  PARSCHED_DCHECK(0.0 < lo && lo <= hi, "log_uniform needs 0 < lo <= hi");
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

double Rng::bounded_pareto(double lo, double hi, double shape) {
  PARSCHED_DCHECK(0.0 < lo && lo < hi && shape > 0.0,
                  "bounded_pareto needs 0 < lo < hi and positive shape");
  // Inverse-CDF in the stable form lo·(1 − u·(1 − (lo/hi)^a))^(−1/a).
  // The textbook form pow(-(u·hi^a − u·lo^a − hi^a)/(hi^a·lo^a), −1/a)
  // overflows hi^a to inf once hi·shape is large, turning the numerator
  // into inf − inf = NaN; here (lo/hi)^a ∈ (0, 1] never overflows, and
  // the result is clamped to [lo, hi] by construction: u = 0 gives
  // lo·1 = lo and u → 1 gives lo·((lo/hi)^a)^(−1/a) = hi.
  const double u = uniform01();
  const double ratio_a = std::pow(lo / hi, shape);
  return lo * std::pow(1.0 - u * (1.0 - ratio_a), -1.0 / shape);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

Rng Rng::split() { return Rng((*this)()); }

}  // namespace parsched
