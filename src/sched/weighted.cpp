#include "sched/weighted.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "check/contract.hpp"

namespace parsched {

PARSCHED_HOT void WeightedIsrpt::allocate(const SchedulerContext& ctx,
                                          Allocation& out) {
  const auto alive = ctx.alive();
  const std::size_t n = alive.size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  if (n > 0 && n < m) {
    out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
    return;
  }
  out.reset(n);
  if (n == 0) return;
  // Select the m jobs with least remaining/weight (selection, not sort).
  idx_.resize(n);
  std::iota(idx_.begin(), idx_.end(), std::size_t{0});
  auto less = [&](std::size_t a, std::size_t b) {
    const double da = alive.remaining(a) / alive.weight(a);
    const double db = alive.remaining(b) / alive.weight(b);
    if (da != db) return da < db;
    if (alive.release(a) != alive.release(b)) {
      return alive.release(a) < alive.release(b);
    }
    return alive.id(a) < alive.id(b);
  };
  std::nth_element(idx_.begin(), idx_.begin() + static_cast<std::ptrdiff_t>(m),
                   idx_.end(), less);
  for (std::size_t k = 0; k < m; ++k) out.grant(idx_[k], 1.0);
}

double weighted_span_lower_bound(const Instance& instance) {
  double total = 0.0;
  const double md = static_cast<double>(instance.machines());
  for (const Job& j : instance.jobs()) {
    double span = 0.0;
    if (j.phases.empty()) {
      span = j.size / j.curve.rate(md);
    } else {
      for (const JobPhase& p : j.phases) span += p.work / p.curve.rate(md);
    }
    total += j.weight * span;
  }
  return total;
}

}  // namespace parsched
