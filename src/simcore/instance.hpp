// parsched — an immutable scheduling instance.
#pragma once

#include <vector>

#include "simcore/job.hpp"

namespace parsched {

/// A fixed (non-adaptive) scheduling instance: m identical unit-speed
/// processors and a set of jobs. Construction sorts jobs by release time
/// (ties broken by id), assigns missing ids, and validates the paper's
/// standing assumptions (sizes >= some minimum, nonnegative releases).
class Instance {
 public:
  Instance(int machines, std::vector<Job> jobs);

  [[nodiscard]] int machines() const { return m_; }
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// Max job size over min job size — the paper's parameter P
  /// (with the normalization min size = 1, simply the max size).
  [[nodiscard]] double P() const { return p_ratio_; }

 private:
  int m_;
  std::vector<Job> jobs_;
  double p_ratio_ = 1.0;
  double min_size_ = 1.0;
  double max_size_ = 1.0;
};

}  // namespace parsched
