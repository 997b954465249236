#include "simcore/result.hpp"

#include <algorithm>

namespace parsched {

double SimResult::max_flow() const {
  double mx = 0.0;
  for (const auto& r : records) mx = std::max(mx, r.flow());
  return mx;
}

std::vector<Job> SimResult::realized_jobs() const {
  std::vector<Job> jobs;
  jobs.reserve(records.size());
  for (const auto& r : records) jobs.push_back(r.job);
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  return jobs;
}

}  // namespace parsched
