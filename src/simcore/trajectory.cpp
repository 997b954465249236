#include "simcore/trajectory.hpp"

#include "check/contract.hpp"

namespace parsched {

void TrajectoryRecorder::on_arrival(double t, const Job& job) {
  auto [it, inserted] = traj_.try_emplace(job.id);
  PARSCHED_CHECK(inserted, "duplicate arrival for job id");
  it->second.job = job;
  it->second.remaining.append(t, job.size);
}

void TrajectoryRecorder::on_decision(double t, std::span<const AliveJob> alive,
                                     std::span<const double> shares) {
  (void)shares;
  for (const AliveJob& a : alive) {
    auto it = traj_.find(a.id);
    PARSCHED_CHECK(it != traj_.end(), "decision for an unknown job");
    it->second.remaining.append(t, a.remaining);
  }
}

void TrajectoryRecorder::on_completion(double t, const Job& job) {
  auto it = traj_.find(job.id);
  PARSCHED_CHECK(it != traj_.end(), "completion of an unknown job");
  it->second.remaining.append(t, 0.0);
  it->second.completion = t;
}

void TrajectoryRecorder::on_done(double t) { (void)t; }

double TrajectoryRecorder::remaining_at(JobId id, double t) const {
  const auto it = traj_.find(id);
  if (it == traj_.end()) return 0.0;
  const JobTrajectory& jt = it->second;
  if (t < jt.job.release) return jt.job.size;
  if (jt.completion > 0.0 && t >= jt.completion) return 0.0;
  return jt.remaining.value(t);
}

void CountTracker::record(double t) {
  count_.append(t, static_cast<double>(alive_));
}

void CountTracker::on_arrival(double t, const Job& job) {
  (void)job;
  ++alive_;
  record(t);
}

void CountTracker::on_completion(double t, const Job& job) {
  (void)job;
  --alive_;
  PARSCHED_CHECK(alive_ >= 0, "more completions than arrivals");
  record(t);
}

void CountTracker::on_done(double t) { record(t); }

}  // namespace parsched
