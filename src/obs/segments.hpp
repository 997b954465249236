// parsched — allocation segments: who held how many processors when.
//
// SegmentRecorder turns the engine's decision and completion callbacks
// into maximal constant-share intervals per job. Both schedule
// observers, analysis/trace.hpp's AllocationTrace and obs/trace_export's
// TraceExporter, record through it.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "simcore/job.hpp"
#include "simcore/scheduler.hpp"

namespace parsched::obs {

/// One maximal interval during which job `job` held `share` processors.
struct AllocationSegment {
  JobId job = kInvalidJob;
  double t0 = 0.0;
  double t1 = 0.0;
  double share = 0.0;
};

class SegmentRecorder {
 public:
  /// A decision replaces the whole allocation: every open segment closes
  /// at `t` and each positive share opens one. Returns the sum of the
  /// positive shares (the processors in use).
  double decide(double t, std::span<const AliveJob> alive,
                std::span<const double> shares);

  /// `job` completed at `t`: its open segment closes.
  void complete(double t, JobId job);

  /// The run ended at `t`: close every open segment, then merge
  /// back-to-back segments of one job whose share did not change
  /// (decision points that re-affirmed its allocation). Leaves the
  /// segments sorted by (job, t0).
  void done(double t);

  [[nodiscard]] const std::vector<AllocationSegment>& segments() const {
    return segments_;
  }

 private:
  void close(JobId job, double start, double share, double t);

  std::vector<AllocationSegment> segments_;
  std::map<JobId, std::pair<double, double>> open_;  // job -> (t0, share)
};

}  // namespace parsched::obs
