#include "simcore/job.hpp"

#include <cmath>
#include <stdexcept>

namespace parsched {

void Job::normalize_phases() {
  if (phases.empty()) return;
  double total = 0.0;
  for (const JobPhase& p : phases) {
    if (!(p.work > 0.0)) {
      throw std::invalid_argument("job phase work must be positive");
    }
    total += p.work;
  }
  size = total;
  curve = phases.front().curve;
}

void check_job(const Job& job) {
  if (!std::isfinite(job.release) || !std::isfinite(job.size) ||
      !std::isfinite(job.weight)) {
    throw std::invalid_argument("job release, size and weight must be finite");
  }
  if (job.release < 0.0) throw std::invalid_argument("negative release time");
  if (job.size <= 0.0) throw std::invalid_argument("nonpositive job size");
  // A multi-phase job carries what normalize_phases() derives from its
  // phases, summed in the same order.
  double total = 0.0;
  for (const JobPhase& p : job.phases) {
    if (!(p.work > 0.0)) throw std::invalid_argument("nonpositive phase work");
    total += p.work;
  }
  if (!job.phases.empty() &&
      (total != job.size || !(job.curve == job.phases.front().curve))) {
    throw std::invalid_argument("multi-phase job is not normalized");
  }
}

Job make_phased_job(JobId id, double release, std::vector<JobPhase> phases) {
  Job j;
  j.id = id;
  j.release = release;
  j.phases = std::move(phases);
  j.normalize_phases();
  return j;
}

std::string to_string(JobTag::Class c) {
  switch (c) {
    case JobTag::Class::kNone:
      return "none";
    case JobTag::Class::kLong:
      return "long";
    case JobTag::Class::kShort:
      return "short";
    case JobTag::Class::kStream:
      return "stream";
  }
  return "?";
}

}  // namespace parsched
