#include "simcore/instance.hpp"

#include <algorithm>
#include <stdexcept>

namespace parsched {

Instance::Instance(int machines, std::vector<Job> jobs)
    : m_(machines), jobs_(std::move(jobs)) {
  if (m_ < 1) throw std::invalid_argument("need at least one machine");
  if (jobs_.empty()) throw std::invalid_argument("instance has no jobs");
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) {
                     return a.release < b.release;
                   });
  min_size_ = max_size_ = jobs_.front().size;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = jobs_[i];
    j.normalize_phases();
    if (j.id == kInvalidJob) j.id = static_cast<JobId>(i);
    check_job(j);
    min_size_ = std::min(min_size_, j.size);
    max_size_ = std::max(max_size_, j.size);
  }
  // Ids must be unique (they key results and trajectories).
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const Job& j : jobs_) ids.push_back(j.id);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    throw std::invalid_argument("duplicate job ids");
  }
  p_ratio_ = max_size_ / min_size_;
}

}  // namespace parsched
