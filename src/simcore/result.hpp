// parsched — simulation results and flow-time accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/run_stats.hpp"
#include "simcore/job.hpp"

namespace parsched {

/// Per-job outcome.
struct JobRecord {
  Job job;
  double completion = 0.0;
  /// Flow time F_j = C_j - r_j, clamped at 0: admission treats releases
  /// within time_tol of `now` as due, so a job can complete up to
  /// time_tol *before* its nominal release — physically that is zero
  /// flow, and letting the negative epsilon through would make flow
  /// totals (batch and streaming alike) dip below the true objective.
  [[nodiscard]] double flow() const {
    return std::max(0.0, completion - job.release);
  }
};

/// Outcome of one simulation run.
struct SimResult {
  std::vector<JobRecord> records;  ///< in completion order
  double total_flow = 0.0;
  double weighted_flow = 0.0;  ///< sum of w_j * F_j (== total_flow when
                               ///< all weights are 1)
  double fractional_flow = 0.0;  ///< integral of sum_j p_j(t)/p_j dt
  double makespan = 0.0;         ///< last completion time
  std::uint64_t decisions = 0;   ///< number of decision points
  std::uint64_t events = 0;      ///< arrivals + completions + reconsiders

  /// Per-phase wall-time buckets and decision histograms; only engaged
  /// when EngineConfig::collect_stats is set (absent on the default,
  /// uninstrumented path).
  std::optional<obs::RunStats> stats;

  [[nodiscard]] std::size_t jobs() const { return records.size(); }
  [[nodiscard]] double avg_flow() const {
    return records.empty() ? 0.0
                           : total_flow / static_cast<double>(records.size());
  }
  [[nodiscard]] double max_flow() const;

  /// All released jobs (the realized instance; for adaptive sources this is
  /// only known after the run). Sorted by release time.
  [[nodiscard]] std::vector<Job> realized_jobs() const;
};

}  // namespace parsched
