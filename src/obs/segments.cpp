#include "obs/segments.hpp"

#include <algorithm>
#include <cmath>

namespace parsched::obs {

void SegmentRecorder::close(JobId job, double start, double share,
                            double t) {
  if (t > start) segments_.push_back({job, start, t, share});
}

double SegmentRecorder::decide(double t, std::span<const AliveJob> alive,
                               std::span<const double> shares) {
  for (const auto& [job, open] : open_) close(job, open.first, open.second, t);
  open_.clear();
  double allocated = 0.0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (shares[i] > 0.0) {
      open_[alive[i].id] = {t, shares[i]};
      allocated += shares[i];
    }
  }
  return allocated;
}

void SegmentRecorder::complete(double t, JobId job) {
  const auto it = open_.find(job);
  if (it == open_.end()) return;
  close(job, it->second.first, it->second.second, t);
  open_.erase(it);
}

void SegmentRecorder::done(double t) {
  for (const auto& [job, open] : open_) close(job, open.first, open.second, t);
  open_.clear();
  std::sort(segments_.begin(), segments_.end(),
            [](const AllocationSegment& a, const AllocationSegment& b) {
              if (a.job != b.job) return a.job < b.job;
              return a.t0 < b.t0;
            });
  std::vector<AllocationSegment> merged;
  merged.reserve(segments_.size());
  for (const AllocationSegment& s : segments_) {
    if (!merged.empty() && merged.back().job == s.job &&
        merged.back().share == s.share &&
        std::fabs(merged.back().t1 - s.t0) < 1e-12) {
      merged.back().t1 = s.t1;
    } else {
      merged.push_back(s);
    }
  }
  segments_ = std::move(merged);
}

}  // namespace parsched::obs
