// parsched — trajectory recording observers.
//
// TrajectoryRecorder captures every job's remaining-work curve as a
// piecewise-linear function of time (exact: rates are constant between
// decision points). CountTracker captures |A(t)| as a step function.
// Both feed the potential-function and local-competitiveness verifiers.
#pragma once

#include <unordered_map>
#include <vector>

#include "simcore/observer.hpp"
#include "util/timeline.hpp"

namespace parsched {

/// Per-job remaining work over time, plus the job itself.
struct JobTrajectory {
  Job job;
  PiecewiseLinear remaining;  ///< knots at decision points; last knot = 0
  double completion = 0.0;
};

class TrajectoryRecorder final : public Observer {
 public:
  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override;
  void on_arrival(double t, const Job& job) override;
  void on_completion(double t, const Job& job) override;
  void on_done(double t) override;

  [[nodiscard]] const std::unordered_map<JobId, JobTrajectory>& trajectories()
      const {
    return traj_;
  }

  /// Remaining work of job `id` at time t (size before release, 0 after
  /// completion).
  [[nodiscard]] double remaining_at(JobId id, double t) const;

 private:
  std::unordered_map<JobId, JobTrajectory> traj_;
};

/// |A(t)| as a right-continuous step function.
class CountTracker final : public Observer {
 public:
  void on_arrival(double t, const Job& job) override;
  void on_completion(double t, const Job& job) override;
  void on_done(double t) override;

  [[nodiscard]] const StepFunction& alive_count() const { return count_; }

 private:
  void record(double t);
  StepFunction count_;
  std::int64_t alive_ = 0;
};

}  // namespace parsched
