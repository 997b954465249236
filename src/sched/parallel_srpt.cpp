#include "sched/parallel_srpt.hpp"

#include "check/contract.hpp"

namespace parsched {

PARSCHED_HOT void ParallelSrpt::allocate(const SchedulerContext& ctx,
                                         Allocation& out) {
  const std::size_t n = ctx.alive().size();
  out.reset(n);
  if (n == 0) return;
  out.grant(ctx.min_remaining(), static_cast<double>(ctx.machines()));
}

}  // namespace parsched
