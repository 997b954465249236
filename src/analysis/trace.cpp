#include "analysis/trace.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <stdexcept>

#include "sched/opt/plan.hpp"
#include "util/fsio.hpp"

namespace parsched {

void AllocationTrace::on_decision(double t, std::span<const AliveJob> alive,
                                  std::span<const double> shares) {
  recorder_.decide(t, alive, shares);
  end_time_ = std::max(end_time_, t);
}

void AllocationTrace::on_completion(double t, const Job& job) {
  recorder_.complete(t, job.id);
  end_time_ = std::max(end_time_, t);
}

void AllocationTrace::on_done(double t) {
  recorder_.done(t);
  end_time_ = std::max(end_time_, t);
}

StepFunction AllocationTrace::utilization() const {
  // Sweep share deltas.
  std::vector<std::pair<double, double>> deltas;
  deltas.reserve(2 * segments().size());
  for (const Segment& s : segments()) {
    deltas.emplace_back(s.t0, s.share);
    deltas.emplace_back(s.t1, -s.share);
  }
  std::sort(deltas.begin(), deltas.end());
  StepFunction f;
  double usage = 0.0;
  std::size_t i = 0;
  while (i < deltas.size()) {
    const double t = deltas[i].first;
    while (i < deltas.size() && deltas[i].first <= t + 1e-12) {
      usage += deltas[i].second;
      ++i;
    }
    f.append(t, std::max(usage, 0.0));
  }
  return f;
}

double AllocationTrace::average_utilization(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return utilization().integrate(t0, t1) / (t1 - t0);
}

void AllocationTrace::write_csv(const std::string& path) const {
  auto out = open_output(path, "trace output");
  out << "job,t0,t1,share\n";
  for (const Segment& s : segments()) {
    out << s.job << ',' << std::setprecision(12) << s.t0 << ',' << s.t1
        << ',' << s.share << '\n';
  }
  // finish_output flushes and re-checks the stream, so a disk-full or
  // short write raises instead of leaving a silently truncated CSV.
  finish_output(out, path);
}

Plan AllocationTrace::to_plan() const {
  Plan plan;
  plan.segments.reserve(segments().size());
  for (const Segment& s : segments()) {
    plan.add(s.job, s.t0, s.t1, s.share);
  }
  return plan;
}

void AllocationTrace::render_gantt(std::ostream& os, int width,
                                   std::size_t max_jobs) const {
  if (segments().empty() || end_time_ <= 0.0 || width < 8) {
    os << "(empty trace)\n";
    return;
  }
  // Pick the jobs with the most allocated machine-time.
  std::map<JobId, double> busy;
  std::map<JobId, std::pair<double, double>> span;  // first/last activity
  for (const Segment& s : segments()) {
    busy[s.job] += (s.t1 - s.t0) * s.share;
    auto [it, inserted] = span.try_emplace(s.job, s.t0, s.t1);
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.t0);
      it->second.second = std::max(it->second.second, s.t1);
    }
  }
  std::vector<JobId> ids;
  for (const auto& [id, b] : busy) {
    (void)b;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return busy.at(a) > busy.at(b);
  });
  if (ids.size() > max_jobs) ids.resize(max_jobs);
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return span.at(a).first < span.at(b).first;
  });

  const double bucket = end_time_ / width;
  os << "time 0 .. " << end_time_ << "  (" << width << " buckets of "
     << bucket << ")\n";
  for (JobId id : ids) {
    std::vector<double> cells(static_cast<std::size_t>(width), 0.0);
    for (const Segment& s : segments()) {
      if (s.job != id) continue;
      const int b0 = std::clamp(static_cast<int>(s.t0 / bucket), 0,
                                width - 1);
      const int b1 = std::clamp(static_cast<int>(std::ceil(s.t1 / bucket)),
                                b0 + 1, width);
      for (int b = b0; b < b1; ++b) {
        cells[static_cast<std::size_t>(b)] =
            std::max(cells[static_cast<std::size_t>(b)], s.share);
      }
    }
    std::string row_label = "j";  // built up: GCC 12 -Werror=restrict
    row_label += std::to_string(id);
    os << std::setw(6) << row_label << " |";
    for (double c : cells) {
      os << (c <= 0.0      ? ' '
             : c < 1.0  ? '.'
             : c == 1.0 ? ':'  // lint: float-eq-ok
                        : '#');
    }
    os << "|\n";
  }
  if (busy.size() > ids.size()) {
    os << "  (+" << busy.size() - ids.size() << " more jobs not shown)\n";
  }
}

}  // namespace parsched
