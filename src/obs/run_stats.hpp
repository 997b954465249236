// parsched — per-run engine profiling buckets.
//
// When EngineConfig::collect_stats is set, the engine splits each run's
// wall time into three buckets, splits the solver bucket five ways, and
// fills two histograms, returning the result as SimResult::stats. With
// the flag off (the default) the hot path takes one predictable branch
// per decision and RunStats is never even constructed — the
// uninstrumented path stays zero-overhead.
//
// The drive loop is timed in laps, so the buckets of an advance_to()
// call add up to its wall time but for its entry and exit.
//
// Bucket semantics:
//   decide_seconds    Scheduler::allocate() and the step's set-up for it
//   observer_seconds  time inside Observer::on_decision callbacks
//   solver_seconds    everything else in the drive loop; at run end it
//                     is set to the exact sum of its five parts:
//     rates_seconds        share validation, the rates Γ(share), the
//                          dt-to-completion scan and the choice of dt
//                          (including deferred-step resumes)
//     advance_seconds      the advance sweep: remaining work, phase
//                          changes, completion tests, the fractional-
//                          flow sum over idle jobs
//     heap_upkeep_seconds  ordering-heap key maintenance for the jobs
//                          that ran (per-key sifts, or marking the SRPT
//                          heap stale)
//     completion_seconds   the step's completions: swap-removes,
//                          records, heap removes, on_completion
//                          callbacks, audits
//     admit_seconds        every admission (clock start, idle jumps,
//                          step ends): the source's calls, check_job,
//                          on_arrival and the append with heap inserts
//   wall_seconds      whole run; >= the sum of the three buckets
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace parsched::obs {

/// Decision-interval histogram bounds (seconds of simulated time,
/// log-spaced): adversarial instances produce dt down to the engine's
/// time tolerance, random ones cluster around the mean service time.
[[nodiscard]] inline std::vector<double> decision_interval_bounds() {
  return {1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4};
}

/// Alive-count histogram bounds (jobs, powers of two): the paper's
/// adversary sustains Θ(m log P) backlog, random critical load Θ(m), and
/// the dense-alive streaming runs hold 10⁵–10⁶ jobs (≤ 2²⁰).
[[nodiscard]] inline std::vector<double> alive_count_bounds() {
  return {1,    2,     4,     8,      16,     32,     64,     128,
          256,  1024,  4096,  16384,  65536,  262144, 1048576};
}

struct RunStats {
  double wall_seconds = 0.0;
  double decide_seconds = 0.0;
  double solver_seconds = 0.0;
  double observer_seconds = 0.0;
  // The parts of solver_seconds (see the file comment).
  double rates_seconds = 0.0;
  double advance_seconds = 0.0;
  double heap_upkeep_seconds = 0.0;
  double completion_seconds = 0.0;
  double admit_seconds = 0.0;

  std::uint64_t decisions = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;

  /// Simulated time between consecutive decision points.
  HistogramData decision_interval{decision_interval_bounds()};
  /// Alive-job count at each decision point.
  HistogramData alive_count{alive_count_bounds()};
};

}  // namespace parsched::obs
