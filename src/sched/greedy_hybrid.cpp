#include "sched/greedy_hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contract.hpp"

namespace parsched {

GreedyHybrid::GreedyHybrid(double max_quantum) : max_quantum_(max_quantum) {
  if (!(max_quantum > 0.0)) {
    throw std::invalid_argument("max_quantum must be positive");
  }
}

PARSCHED_HOT void GreedyHybrid::allocate(const SchedulerContext& ctx,
                                         Allocation& out) {
  const auto alive = ctx.alive();
  const std::size_t n = alive.size();
  const int m = ctx.machines();
  out.reset(n);
  if (n == 0) return;

  // Hand out whole processors one at a time to the best marginal ratio.
  // The member vector + push_heap/pop_heap pair is the same algorithm
  // std::priority_queue is specified in terms of, so the grant sequence
  // (including tie resolution) is unchanged from the priority_queue days.
  granted_.assign(n, 0);
  heap_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    heap_.push_back({alive.curve(i).marginal(0.0) / alive.remaining(i),
                     alive.remaining(i), i, 0});
    std::push_heap(heap_.begin(), heap_.end());
  }
  for (int p = 0; p < m && !heap_.empty(); ++p) {
    std::pop_heap(heap_.begin(), heap_.end());
    const Candidate top = heap_.back();
    heap_.pop_back();
    if (top.priority <= 0.0) break;  // no further marginal gain anywhere
    granted_[top.idx] += 1;
    const double rem = alive.remaining(top.idx);
    heap_.push_back(
        {alive.curve(top.idx).marginal(
             static_cast<double>(granted_[top.idx])) / rem,
         rem, top.idx, granted_[top.idx]});
    std::push_heap(heap_.begin(), heap_.end());
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (granted_[i] > 0) out.grant(i, static_cast<double>(granted_[i]));
  }

  // Reconsideration horizon: priorities are c / p_j(t) with p_j(t) linear
  // (slope -rate_j). The current grant stays greedy-consistent while every
  // granted job's *last* marginal priority dominates every job's *next*
  // marginal priority. Find the earliest pairwise crossing.
  const double now = ctx.time();
  double horizon = (max_quantum_ == kInf) ? kInf : now + max_quantum_;
  // Each job's next marginal is evaluated once here, not once per
  // granted job in the pairwise scan below.
  // A job's share is its granted_ count (+0.0 when it got none), which
  // spares out.shares() its n-sized write.
  rate_.resize(n);
  next_marginal_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    rate_[i] = alive.curve(i).rate(static_cast<double>(granted_[i]));
    next_marginal_[i] =
        alive.curve(i).marginal(static_cast<double>(granted_[i]));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (granted_[j] == 0) continue;
    const double a = alive.curve(j).marginal(
        static_cast<double>(granted_[j] - 1));  // last granted marginal
    for (std::size_t k = 0; k < n; ++k) {
      if (k == j) continue;
      const double b = next_marginal_[k];
      if (b <= 0.0) continue;
      // Crossing of a / (p_j - r_j s) and b / (p_k - r_k s), s = t - now:
      //   a (p_k - r_k s) = b (p_j - r_j s)
      const double num = a * alive.remaining(k) - b * alive.remaining(j);
      const double den = a * rate_[k] - b * rate_[j];
      if (den <= 0.0) continue;  // never crosses going forward
      const double s = num / den;
      if (s > 1e-12) horizon = std::min(horizon, now + s);
    }
  }
  out.reconsider_at = horizon;
}

}  // namespace parsched
