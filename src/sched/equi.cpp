#include "sched/equi.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "check/contract.hpp"

namespace parsched {

PARSCHED_HOT void Equi::allocate(const SchedulerContext& ctx, Allocation& out) {
  const std::size_t n = ctx.alive().size();
  if (n == 0) {
    out.reset(0);
    return;
  }
  out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
}

Laps::Laps(double beta) : beta_(beta) {
  if (beta <= 0.0 || beta > 1.0) {
    throw std::invalid_argument("LAPS beta must be in (0, 1]");
  }
}

std::string Laps::name() const {
  std::ostringstream os;
  os << "LAPS(" << beta_ << ")";
  return os.str();
}

OldestEqui::OldestEqui(double beta) : beta_(beta) {
  if (beta <= 0.0 || beta > 1.0) {
    throw std::invalid_argument("OldestEqui beta must be in (0, 1]");
  }
}

std::string OldestEqui::name() const {
  std::ostringstream os;
  os << "Oldest-EQUI(" << beta_ << ")";
  return os.str();
}

PARSCHED_HOT void OldestEqui::allocate(const SchedulerContext& ctx,
                                       Allocation& out) {
  const std::size_t n = ctx.alive().size();
  out.reset(n);
  if (n == 0) return;
  const auto k = static_cast<std::size_t>(
      std::ceil(beta_ * static_cast<double>(n)));
  const auto order = ctx.latest_arrivals(n);  // latest first
  const double share =
      static_cast<double>(ctx.machines()) / static_cast<double>(k);
  // Serve the k OLDEST: the tail of the latest-first order.
  for (std::size_t i = n - k; i < n; ++i) out.grant(order[i], share);
}

PARSCHED_HOT void Laps::allocate(const SchedulerContext& ctx, Allocation& out) {
  const std::size_t n = ctx.alive().size();
  out.reset(n);
  if (n == 0) return;
  const auto k = static_cast<std::size_t>(
      std::ceil(beta_ * static_cast<double>(n)));
  const double share =
      static_cast<double>(ctx.machines()) / static_cast<double>(k);
  for (std::size_t i : ctx.latest_arrivals(k)) out.grant(i, share);
}

}  // namespace parsched
