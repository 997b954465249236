#include "simcore/scheduler.hpp"

#include <algorithm>

#include "check/contract.hpp"
#include "simcore/incremental.hpp"

namespace parsched {

SchedulerContext::SchedulerContext(double time, int machines,
                                   AliveView alive, IncrementalOrders& orders)
    : time_(time), machines_(machines), alive_(alive), orders_(orders) {
  orders.begin_decision();
}

void Allocation::assign(std::vector<double> shares) {
  shares_ = std::move(shares);
  size_ = shares_.size();
  unwritten_ = false;
  support_.clear();
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (!is_pos_zero(shares_[i])) support_.push_back(i);
  }
  dense_ = false;
  uniform_ = false;
}

PARSCHED_HOT void Allocation::sort_support() {
  if (dense_) return;
  // A support covering at least 1/8 of the jobs (LAPS grants half of
  // them; SRPT-style policies grant m of a few dozen) is cheaper to treat
  // as the whole range than to sort and visit by index. The range is a
  // superset of the support, so that is always correct.
  if (support_.size() * 8 >= size_) {
    support_.clear();
    dense_ = true;
    return;
  }
  std::sort(support_.begin(), support_.end());
  support_.erase(std::unique(support_.begin(), support_.end()),
                 support_.end());
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::smallest_remaining(
    std::size_t k) const {
  return orders_.srpt.prefix(alive_, k);
}

PARSCHED_HOT std::size_t SchedulerContext::min_remaining() const {
  PARSCHED_CHECK(!alive_.empty(), "min_remaining over an empty alive set");
  return smallest_remaining(1)[0];
}

PARSCHED_HOT std::span<const std::size_t> SchedulerContext::latest_arrivals(
    std::size_t k) const {
  return orders_.latest.prefix(alive_, k);
}

}  // namespace parsched
