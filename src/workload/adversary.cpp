#include "workload/adversary.hpp"

#include <cmath>
#include <stdexcept>

#include "check/contract.hpp"
#include "util/mathx.hpp"

namespace parsched {

AdversaryParams adversary_params(const AdversaryConfig& cfg) {
  if (cfg.machines < 2 || cfg.machines % 2 != 0) {
    throw std::invalid_argument("adversary needs an even m >= 2");
  }
  if (cfg.alpha < 0.0 || cfg.alpha >= 1.0) {
    throw std::invalid_argument("alpha must be in [0, 1)");
  }
  if (cfg.P < 4.0) throw std::invalid_argument("adversary needs P >= 4");
  const AdversaryConstants c = adversary_constants(cfg.alpha);
  AdversaryParams p;
  p.epsilon = c.epsilon;
  p.r = c.r;
  p.kappa = c.kappa;
  const double logP = log_inv(c.r, cfg.P);  // log_{1/r}(P)
  p.num_phases = std::max(1, static_cast<int>(std::floor(logP / 2.0)));
  p.threshold = static_cast<double>(cfg.machines) * logP;
  p.X = cfg.stream_time > 0.0 ? cfg.stream_time : cfg.P * cfg.P;
  if (p.X < 1.0) throw std::invalid_argument("stream_time must be >= 1");
  p.proof_condition = logP * logP < 0.25 * c.kappa * std::sqrt(cfg.P);
  return p;
}

AdversarySource::AdversarySource(const AdversaryConfig& cfg)
    : cfg_(cfg), params_(adversary_params(cfg)) {
  reset();
}

void AdversarySource::reset() {
  outcome_ = {};
  pending_.clear();
  current_phase_ = 0;
  part2_ = false;
  done_ = false;
  next_id_ = 0;
  stream_start_ = 0.0;
  stream_next_ = 0;
  stream_total_ = static_cast<std::int64_t>(std::llround(params_.X));
  schedule_phase(0);
}

void AdversarySource::schedule_phase(int i) {
  const double p_i = cfg_.P * std::pow(params_.r, i);
  const double s_i =
      outcome_.phase_start.empty()
          ? 0.0
          : outcome_.phase_start.back() + outcome_.phase_length.back();
  PARSCHED_CHECK(p_i >= 2.0, "phase too short for its unit jobs");
  outcome_.phase_start.push_back(s_i);
  outcome_.phase_length.push_back(p_i);
  current_phase_ = i;
  const SpeedupCurve curve = SpeedupCurve::power_law(cfg_.alpha);
  const int m = cfg_.machines;
  // m/2 long jobs of length p_i at the phase start.
  for (int j = 0; j < m / 2; ++j) {
    Job job;
    job.id = next_id_++;
    job.release = s_i;
    job.size = p_i;
    job.curve = curve;
    job.tag = {i, JobTag::Class::kLong, j};
    pending_.push_back(std::move(job));
  }
  // m unit jobs at each integer offset in the first half of the phase.
  const auto batches = static_cast<std::int64_t>(std::floor(p_i / 2.0));
  for (std::int64_t b = 0; b < batches; ++b) {
    for (int j = 0; j < m; ++j) {
      Job job;
      job.id = next_id_++;
      job.release = s_i + static_cast<double>(b);
      job.size = 1.0;
      job.curve = curve;
      job.tag = {i, JobTag::Class::kShort, b * m + j};
      pending_.push_back(std::move(job));
    }
  }
  decision_time_ = s_i + p_i / 2.0;
}

void AdversarySource::start_part2(double T, int phase, bool case1) {
  part2_ = true;
  decision_time_ = kInf;
  stream_start_ = T;
  stream_next_ = 0;
  outcome_.case1 = case1;
  outcome_.decision_phase = phase;
  outcome_.T = T;
}

double AdversarySource::next_time(const EngineView& view) {
  (void)view;
  double t = kInf;
  if (!pending_.empty()) t = std::min(t, pending_.front().release);
  if (!part2_) {
    t = std::min(t, decision_time_);
  } else if (stream_next_ < stream_total_) {
    t = std::min(t, stream_start_ + static_cast<double>(stream_next_));
  }
  return t;
}

std::span<const Job> AdversarySource::take(double t,
                                           const EngineView& view) {
  std::vector<Job>& out = batch_;
  out.clear();
  const double tol = 1e-9 * std::max(1.0, t);
  while (!pending_.empty() && pending_.front().release <= t + tol) {
    out.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  if (!part2_ && t >= decision_time_ - tol) {
    PARSCHED_CHECK(pending_.empty(),
                   "all phase arrivals precede the midpoint decision");
    const double short_backlog =
        view.remaining_tagged(JobTag::Class::kShort, current_phase_);
    if (short_backlog >= params_.threshold) {
      // Case 1: the online algorithm is hoarding unit jobs; punish now.
      start_part2(decision_time_, current_phase_, /*case1=*/true);
    } else if (current_phase_ + 1 < params_.num_phases) {
      schedule_phase(current_phase_ + 1);
    } else {
      // Case 2: all phases exhausted; part 2 starts at the phase end.
      start_part2(outcome_.phase_start.back() + outcome_.phase_length.back(),
                  current_phase_, /*case1=*/false);
    }
  }
  if (part2_ && stream_next_ < stream_total_) {
    const double batch_time =
        stream_start_ + static_cast<double>(stream_next_);
    if (batch_time <= t + tol) {
      const SpeedupCurve curve = SpeedupCurve::power_law(cfg_.alpha);
      for (int j = 0; j < cfg_.machines; ++j) {
        Job job;
        job.id = next_id_++;
        job.release = batch_time;
        job.size = 1.0;
        job.curve = curve;
        job.tag = {outcome_.decision_phase, JobTag::Class::kStream,
                   stream_next_ * cfg_.machines + j};
        out.push_back(std::move(job));
      }
      ++stream_next_;
      if (stream_next_ == stream_total_) done_ = true;
    }
  }
  return out;
}

Plan adversary_standard_plan(const Instance& realized,
                             const AdversaryConfig& cfg,
                             const AdversaryOutcome& outcome) {
  Plan plan;
  const double alpha = cfg.alpha;
  const double rate2 = std::pow(2.0, alpha);  // Γ(2)
  // End of the part-2 stream: last batch at T + (X-1), finished T + X.
  double stream_end = outcome.T;
  for (const Job& j : realized.jobs()) {
    if (j.tag.cls == JobTag::Class::kStream) {
      stream_end = std::max(stream_end, j.release + 1.0);
    }
  }

  for (const Job& j : realized.jobs()) {
    switch (j.tag.cls) {
      case JobTag::Class::kLong: {
        const int i = j.tag.phase;
        const double s_i = outcome.phase_start[i];
        const double p_i = outcome.phase_length[i];
        if (outcome.case1 && i == outcome.decision_phase) {
          // Deferred: two machines each, after the stream drains.
          plan.add(j.id, stream_end, stream_end + p_i / rate2, 2.0);
        } else {
          // Standard: one machine for the whole phase.
          plan.add(j.id, s_i, s_i + p_i, 1.0);
        }
        break;
      }
      case JobTag::Class::kShort: {
        const int i = j.tag.phase;
        const double p_i = outcome.phase_length[i];
        const int m = cfg.machines;
        const bool immediate =
            (outcome.case1 && i == outcome.decision_phase) ||
            (j.tag.index % m) < m / 2;
        const double start =
            immediate ? j.release : j.release + p_i / 2.0;
        plan.add(j.id, start, start + 1.0, 1.0);
        break;
      }
      case JobTag::Class::kStream:
        plan.add(j.id, j.release, j.release + 1.0, 1.0);
        break;
      case JobTag::Class::kNone:
        throw std::invalid_argument(
            "job without adversary tag in realized instance");
    }
  }
  return plan;
}

}  // namespace parsched
