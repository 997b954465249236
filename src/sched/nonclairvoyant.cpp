#include "sched/nonclairvoyant.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "check/contract.hpp"
#include "util/mathx.hpp"

namespace parsched {

namespace {

/// Work this job has received so far — directly observable by a
/// non-clairvoyant scheduler (it is the integral of its own decisions),
/// and equal to size - remaining.
double processed(AliveView alive, std::size_t i) {
  return alive.job_size(i) - alive.remaining(i);
}

/// MLF level: processed in [2^k - 1, 2^{k+1} - 1)  <=>  k = floor(log2(p+1)).
int mlf_level(AliveView alive, std::size_t i) {
  return static_cast<int>(std::floor(std::log2(processed(alive, i) + 1.0)));
}

}  // namespace

Setf::Setf(double quantum) : quantum_(quantum) {
  if (!(quantum > 0.0)) throw std::invalid_argument("quantum must be > 0");
}

std::string Setf::name() const {
  std::ostringstream os;
  os << "SETF(q=" << quantum_ << ")";
  return os.str();
}

PARSCHED_HOT void Setf::allocate(const SchedulerContext& ctx, Allocation& out) {
  const auto alive = ctx.alive();
  const std::size_t n = alive.size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  if (n > 0 && n < m) {
    out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
    return;
  }
  out.reset(n);
  if (n == 0) return;
  idx_.resize(n);
  std::iota(idx_.begin(), idx_.end(), std::size_t{0});
  std::nth_element(idx_.begin(), idx_.begin() + static_cast<std::ptrdiff_t>(m),
                   idx_.end(), [&](std::size_t a, std::size_t b) {
                     const double pa = processed(alive, a);
                     const double pb = processed(alive, b);
                     if (pa != pb) return pa < pb;
                     return alive.arrival_seq(a) < alive.arrival_seq(b);
                   });
  for (std::size_t k = 0; k < m; ++k) out.grant(idx_[k], 1.0);
  // Served jobs stop being the least-processed almost immediately; hold
  // the decision for one quantum (the realizable form of SETF).
  out.reconsider_at = ctx.time() + quantum_;
}

PARSCHED_HOT void Mlf::allocate(const SchedulerContext& ctx, Allocation& out) {
  const auto alive = ctx.alive();
  const std::size_t n = alive.size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  if (n > 0 && n < m) {
    out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
    return;
  }
  out.reset(n);
  if (n == 0) return;
  idx_.resize(n);
  std::iota(idx_.begin(), idx_.end(), std::size_t{0});
  std::sort(idx_.begin(), idx_.end(), [&](std::size_t a, std::size_t b) {
    const int la = mlf_level(alive, a);
    const int lb = mlf_level(alive, b);
    if (la != lb) return la < lb;
    return alive.arrival_seq(a) < alive.arrival_seq(b);
  });
  double horizon = kInf;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = idx_[k];
    out.grant(i, 1.0);
    // A served job crosses into the next level when its processed work
    // reaches 2^{level+1} - 1; rate at share 1 is Γ(1) = 1, so the
    // crossing time is exact.
    const double threshold =
        std::exp2(mlf_level(alive, i) + 1) - 1.0;
    const double dt = threshold - processed(alive, i);
    if (dt > 1e-12) horizon = std::min(horizon, ctx.time() + dt);
  }
  out.reconsider_at = horizon;
}

}  // namespace parsched
