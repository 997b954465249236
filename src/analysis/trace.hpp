// parsched — allocation traces: what did the scheduler actually do?
//
// AllocationTrace is an Observer that records the full piecewise-constant
// allocation (who held how many processors when). It can export the raw
// segments as CSV for offline tooling, compute machine utilization over
// time, and render a terminal Gantt chart — the "look at the schedule"
// loop a user of the library actually needs when debugging a policy.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/segments.hpp"
#include "simcore/observer.hpp"
#include "util/timeline.hpp"

namespace parsched {

struct Plan;  // sched/opt/plan.hpp

class AllocationTrace final : public Observer {
 public:
  using Segment = obs::AllocationSegment;

  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override;
  void on_completion(double t, const Job& job) override;
  void on_done(double t) override;

  [[nodiscard]] const std::vector<Segment>& segments() const {
    return recorder_.segments();
  }

  /// Total allocated processors as a step function of time.
  [[nodiscard]] StepFunction utilization() const;

  /// Time-average utilization over [t0, t1].
  [[nodiscard]] double average_utilization(double t0, double t1) const;

  /// Write "job,t0,t1,share" rows.
  void write_csv(const std::string& path) const;

  /// Render an ASCII Gantt chart: one row per job (at most `max_jobs`,
  /// preferring the longest-running), `width` time buckets, glyph density
  /// by share: ' ' none, '.' <1, ':' =1, '#' >1 processors.
  void render_gantt(std::ostream& os, int width = 72,
                    std::size_t max_jobs = 24) const;

  /// Convert the recorded schedule into an explicit Plan. Executing that
  /// plan (sched/opt/plan.hpp) must reproduce the engine's completion
  /// times exactly — the library's strongest cross-validation between its
  /// two independent execution paths. Only valid for single-phase jobs
  /// (plans carry one curve per job).
  [[nodiscard]] Plan to_plan() const;

 private:
  obs::SegmentRecorder recorder_;
  double end_time_ = 0.0;
};

}  // namespace parsched
