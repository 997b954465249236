#include "simcore/scheduler.hpp"

#include "check/contract.hpp"
#include "simcore/incremental.hpp"

namespace parsched {

SchedulerContext::SchedulerContext(double time, int machines,
                                   std::span<const AliveJob> alive,
                                   IncrementalOrders& orders)
    : time_(time), machines_(machines), alive_(alive), orders_(orders) {
  PARSCHED_CHECK(orders.size() == alive.size(),
                 "SchedulerContext: orders out of step with the alive set");
  orders.begin_decision();
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::by_remaining()
    const {
  return orders_.srpt_prefix(alive_, alive_.size());
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::smallest_remaining(
    std::size_t k) const {
  return orders_.srpt_prefix(alive_, k);
}

PARSCHED_HOT std::size_t SchedulerContext::min_remaining() const {
  return orders_.min_srpt(alive_);
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::by_latest_arrival()
    const {
  return orders_.latest_prefix(alive_.size());
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::latest_arrivals(
    std::size_t k) const {
  return orders_.latest_prefix(k);
}

}  // namespace parsched
