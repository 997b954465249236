#include "sched/sequential_srpt.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace parsched {

PARSCHED_HOT void SequentialSrpt::allocate(const SchedulerContext& ctx,
                                           Allocation& out) {
  const std::size_t n = ctx.alive().size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  out.reset(n);
  for (std::size_t i : ctx.smallest_remaining(std::min(n, m))) {
    out.grant(i, 1.0);
  }
}

}  // namespace parsched
