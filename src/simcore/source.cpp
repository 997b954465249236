#include "simcore/source.hpp"

#include <algorithm>

#include "util/mathx.hpp"

namespace parsched {

void JobQueue::push(Job job) {
  // In release order (the common case) the job goes at the back without
  // a search; upper_bound would find the same position.
  const auto it =
      jobs_.empty() || jobs_.back().release <= job.release
          ? jobs_.end()
          : std::upper_bound(
                jobs_.begin(), jobs_.end(), job.release,
                [](double r, const Job& j) { return r < j.release; });
  jobs_.insert(it, std::move(job));
}

double JobQueue::next_time(const EngineView& view) {
  (void)view;
  return jobs_.empty() ? kInf : jobs_.front().release;
}

std::span<const Job> JobQueue::take(double t, const EngineView& view) {
  (void)view;
  part_.clear();
  while (!jobs_.empty() && jobs_.front().release <= t &&
         part_.size() < kPart) {
    part_.push_back(std::move(jobs_.front()));
    jobs_.pop_front();
  }
  return part_;
}

}  // namespace parsched
