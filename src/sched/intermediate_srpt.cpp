#include "sched/intermediate_srpt.hpp"

#include "check/contract.hpp"

namespace parsched {

PARSCHED_HOT void IntermediateSrpt::allocate(const SchedulerContext& ctx,
                                Allocation& out) {
  const std::size_t n = ctx.alive().size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  if (n > 0 && n < m) {
    // Underloaded: equipartition (Round Robin / Processor Sharing).
    out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
    return;
  }
  // Overloaded: Sequential-SRPT — one processor to each of the m jobs
  // with the least remaining work.
  out.reset(n);
  if (n == 0) return;
  for (std::size_t i : ctx.smallest_remaining(m)) out.grant(i, 1.0);
}

}  // namespace parsched
