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
  granted_.clear();
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (!is_pos_zero(shares_[i])) support_.push_back(i);
  }
  dense_ = false;
  uniform_ = false;
}

PARSCHED_HOT void Allocation::sort_support() {
  if (dense_) return;
  if (listing()) {
    if (support_.size() * 8 < size_) {
      sort_list();
      return;
    }
    write_shares();  // the support the widening test below counts
  }
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
  // An index granted a share and then +0.0 leaves: it would add nothing.
  std::erase_if(support_, [this](std::size_t i) {
    return is_pos_zero(shares_[i]);
  });
  granted_.resize(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j) {
    granted_[j] = shares_[support_[j]];
  }
}

void Allocation::sort_list() {
  // Order the list by index, then by grant order: an index keeps its last
  // grant's share, and stays in the support unless that share is +0.0.
  order_.clear();
  for (std::size_t j = 0; j < support_.size(); ++j) {
    order_.push_back({support_[j], j, granted_[j]});
  }
  std::sort(order_.begin(), order_.end(), [](const Grant& a, const Grant& b) {
    return a.index != b.index ? a.index < b.index : a.seq < b.seq;
  });
  support_.clear();
  granted_.clear();
  for (std::size_t j = 0; j < order_.size(); ++j) {
    const Grant& g = order_[j];
    const bool last = j + 1 == order_.size() || order_[j + 1].index != g.index;
    if (last && !is_pos_zero(g.share)) {
      support_.push_back(g.index);
      granted_.push_back(g.share);
    }
  }
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
